"""Pinned bytes of the distributed model: what a run writes must not move.

Every other distrib suite compares the model with itself (one cluster
against another, the C step against its twin) or with the serial engine.
This file holds the record path to fixed sha256 digests instead: each
rank's ``.evl`` file, the last ``dist_state.npz`` (its arrays, by name),
each rank's ``TrafficStats`` and ``migrations_per_hour`` of a 3 000-person
world run for two weeks and 11 hours on 1, 3 and 4 ranks, plain, with a
snapshot every 24 hours under a write-ahead log, and without logs (the
held records and snapshots that carry them).  A change that reorders,
drops or adds one record, one migrant or one metered byte changes a
digest.  The digests were computed before the rank loop became one loop
over the ranks a process hosts, and both kernel legs must reproduce them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import HOURS_PER_WEEK, ScaleConfig, SimulationConfig
from repro.distrib import DistributedSimulation, spatial_partition
from repro.distrib.dmodel import DIST_STATE
from repro.synthpop import generate_population

SCALE = ScaleConfig(n_persons=3_000, seed=2017)
DURATION = 2 * HOURS_PER_WEEK + 11
MODES = {
    "plain": ({}, True),
    "wal-ck24": ({"checkpoint_every_hours": 24, "log_durability": "wal"}, True),
    "held-ck24": ({"checkpoint_every_hours": 24}, False),
}

#: (ranks, mode) -> {what: sha256 hex digest}
DIGESTS = {
    (1, "held-ck24"): {
        "dist_state.npz": "497d15350e01f0ae33fef6bb0055c4cf937120e95a1167ddb7d60cae194a0b61",
        "migrations": "5936a585585734aefe0c5f132dfbb5faf8e93e3dbccba65f4109bccc47608f73",
        "records_0": "14d1912da74af946fc99679fcf81e9b2e9df40d49cf6348710ff6f6f5acf9198",
        "traffic_0": "f3625dc06857c3fe118e64d5250ead652446778b5fea54ddc1c6bf1a8ebae567",
    },
    (1, "plain"): {
        "migrations": "5936a585585734aefe0c5f132dfbb5faf8e93e3dbccba65f4109bccc47608f73",
        "rank_0000.evl": "6aa21aa68d3a223cc5f03ccfac53aabd5cb713c4b72eedc76537125035011ae6",
        "traffic_0": "e4e3da2174fc613828888e92039a7559d9c4a0069ca8d031af75a8fc0ae422c8",
    },
    (1, "wal-ck24"): {
        "dist_state.npz": "4289cd9b927abd1f22a2df45127794b99546e22d5508f4d9a7533fd70ae21e61",
        "migrations": "5936a585585734aefe0c5f132dfbb5faf8e93e3dbccba65f4109bccc47608f73",
        "rank_0000.evl": "0826e57dd157fe364a00c566ceea6e18f8b39029d2fadc214cc602f098ea6165",
        "traffic_0": "f3625dc06857c3fe118e64d5250ead652446778b5fea54ddc1c6bf1a8ebae567",
    },
    (3, "held-ck24"): {
        "dist_state.npz": "f83cccb7fbb039002b18499893f61b96cb2516c25d3de33a0ddc19f5491edcd4",
        "migrations": "2957ea68701bfff77b5ab4e72978aa3b0f8e67e4c2c06aaabb3de4d3aa8abdb4",
        "records_0": "b135a6056b58354da81ebd72dc1a54b3bc98af1d4bd8f230e405a47c0031c2fc",
        "records_1": "aa9e8c5ee9e0f247a3227fbefcf678a6c5d33c42b8aed311edc7776e2f1a92c9",
        "records_2": "026e033ce920fee5a7cf38caecba741b894ce970b8ab0589206c1e02c26b5456",
        "traffic_0": "eea6516d89d3d83bdcea3ea9bc428424e593b4d0168f394ae0b480552b9c83eb",
        "traffic_1": "67b8c66599bb4abb24a4b62b4ec67abcd16b09ee76147f3640fb1e8a97fbedeb",
        "traffic_2": "fb087368bfde20b936d082cfea640320dec5f04aa69e178e2a45b7f6ca1828e6",
    },
    (3, "plain"): {
        "migrations": "2957ea68701bfff77b5ab4e72978aa3b0f8e67e4c2c06aaabb3de4d3aa8abdb4",
        "rank_0000.evl": "56fdfdafa395a102d04549be4df70bcd79cc8d13d185739d8a87dc5d11968892",
        "rank_0001.evl": "8ce361bdecdb0306ccef1babd68cef123d734c943c9873bcff9fca8c3647aca7",
        "rank_0002.evl": "a79dfa9bd51fbbe7f0970fd213e6b0456e1372ffde8af1e7df732a053b5e9db8",
        "traffic_0": "6c5ecf07e77a19da3267a5c240f725450253b8f50d98be326ac4314892f80fb8",
        "traffic_1": "a1c968743176de755392373f67e991bd258845e0595cd2ab7220ba397eccc0f6",
        "traffic_2": "e5fa76e6260385d851ab565132c8b3e4498c14d7b9d19f31133d392198470bf9",
    },
    (3, "wal-ck24"): {
        "dist_state.npz": "6bc25a8bf3cfe593e97536973e8776789bbc17a139dd5539880884a84247d8c0",
        "migrations": "2957ea68701bfff77b5ab4e72978aa3b0f8e67e4c2c06aaabb3de4d3aa8abdb4",
        "rank_0000.evl": "13e782159d364f59a67ad5e6dbf027380feb3d9c8f3cce96d0105d68545e7fa4",
        "rank_0001.evl": "68a18ad79b42ccbc00147425c0be1af9cd1b312de0f32679ed85fe3141ff9acc",
        "rank_0002.evl": "8f753867438f4c255eec0fc7b53d7eb2291deb1932f31d228da9ccf54064ab86",
        "traffic_0": "eea6516d89d3d83bdcea3ea9bc428424e593b4d0168f394ae0b480552b9c83eb",
        "traffic_1": "f3de11c8f1d887d6acc20e5c23a7b7596b1c9cd4c44b63c9868633419c1f05a5",
        "traffic_2": "4d695131de14a5666beea06588ce71bfd0860d574f4956740432c203855cc944",
    },
    (4, "held-ck24"): {
        "dist_state.npz": "ec2f4229174d645bf40574896c1de5f5afb533a280932889416cd1b75081e4c5",
        "migrations": "65a252230d2f72f0ab7119a45ebf29dc2a46fd004db1f4fe468979521b037687",
        "records_0": "ea7e5df01dc75be42abe2152874a8d450fd3e7e0c58f497514d485cbdacea3d4",
        "records_1": "ba1949fe1ef7f619af4f3625310d24d4e2fd85c1e3b1e84cf7bc668311cac230",
        "records_2": "8719f51d3a21490bef6ff30c12988d6b84ee31ba107be935a473b39982665d4c",
        "records_3": "6cb877e93bd9264fd33e3dc948b80ca1fa613741094c5112c3284e79ec3d8a46",
        "traffic_0": "d7df2e56cdab00edbdb3b62f4fa3dcd9b469ad3fbf8adeb48486d5512657deb7",
        "traffic_1": "190f490529193c904a45ed09bcd79d94d63d822fa61aafac49f23a8a494d48a5",
        "traffic_2": "653d657da9731cd3245e0c3da7f23c6012cf64b4d378adc2213061ef4ed1b192",
        "traffic_3": "7c039e89fcba6a277fec1b8a03a7088c0389eaeaab63c912d0197c7b455e2fc3",
    },
    (4, "plain"): {
        "migrations": "65a252230d2f72f0ab7119a45ebf29dc2a46fd004db1f4fe468979521b037687",
        "rank_0000.evl": "fdd89bb2b0f0848401640f09b3726426f1117ec20e74245e3dcd9e548e985452",
        "rank_0001.evl": "536a841858472397182e0b77b929bf8311a278914d9424483fc165f67de3514b",
        "rank_0002.evl": "40835969c9510e64e3541db9c72fb1abe745bace9a8482643013ab6d1881c6ef",
        "rank_0003.evl": "651d42a1e7c8559c735a11bf5921dd6ab5e49585ca9560ddc1709f84bad1f499",
        "traffic_0": "782802ba2345596c59e81df50a03549ab7d6be5c23744a87ef9367c688468562",
        "traffic_1": "fd0acf33cf569d81204484e07d2b47aff3debcc519d23334392ef5fe6ba2eb9a",
        "traffic_2": "13fa548a8b2984a06541dc06f4682549a23aef7dcbc63da35bf26de4cecdf7fd",
        "traffic_3": "a9437d5f410922c56666cacf7ffd64b94a6b0980343c4167483ae88899ae9fbd",
    },
    (4, "wal-ck24"): {
        "dist_state.npz": "d68fadec5bc3aceecf3dcb69ced48cd053d24634682e95e2bd90e60ae11c80dd",
        "migrations": "65a252230d2f72f0ab7119a45ebf29dc2a46fd004db1f4fe468979521b037687",
        "rank_0000.evl": "d405278a1c1619a1f819f87d0a40ad809bcfc287dcedd05aa3f2e94ff6f6a7af",
        "rank_0001.evl": "5ed5b64b22664bb200940d792124b29c1bb436c7715f8776177b82d32702140c",
        "rank_0002.evl": "34be2163438a84ec444b9865204f590ac76d0ea16d981c4a17f26cc3a431273a",
        "rank_0003.evl": "80cd23374d9d9097f2fa1d4f4014e3eb5d2f74bbd59ffda4c8b720ff791d9b1f",
        "traffic_0": "d7df2e56cdab00edbdb3b62f4fa3dcd9b469ad3fbf8adeb48486d5512657deb7",
        "traffic_1": "90906f8c7ffa4ff04b910bb9ff3d44e8c186fe99ce7756549b8a6bdbd74cb264",
        "traffic_2": "cdc99800bc8966ff9fb259125a8cb2e975d7249b6d29f4d1fcb506bfd99c9d7a",
        "traffic_3": "e92d596563a7af56b49aaba070ec03ec8702a41a0b87051e7ec59d62b09e5db2",
    },
}


@pytest.fixture(scope="module")
def pop():
    return generate_population(SCALE)


def sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def array_digest(a: np.ndarray) -> str:
    return sha(str(a.dtype).encode(), str(a.shape).encode(), a.tobytes())


def run_digests(pop, n_ranks: int, mode: str, tmp: Path) -> dict[str, str]:
    extra, logged = MODES[mode]
    config = SimulationConfig(
        scale=SCALE, duration_hours=DURATION, n_ranks=n_ranks,
        log_cache_records=997, **extra,
    )  # fmt: skip
    partition = spatial_partition(
        pop.places.coords(), pop.places.capacity.astype(float), n_ranks
    )
    ckpt = tmp / "ck"
    result = DistributedSimulation(pop, config, partition).run(
        log_dir=tmp / "logs" if logged else None,
        checkpoint_dir=ckpt if extra else None,
    )
    out = {"migrations": array_digest(result.migrations_per_hour)}
    for rank, traffic in enumerate(result.per_rank_traffic):
        out[f"traffic_{rank}"] = sha(
            json.dumps(
                [
                    traffic.messages_sent, traffic.bytes_sent, traffic.collectives,
                    sorted(traffic.by_kind.items()),
                ]
            ).encode()
        )
    if logged:
        for path in sorted((tmp / "logs").glob("*.evl")):
            out[path.name] = sha(path.read_bytes())
    else:
        for rank, records in enumerate(result.per_rank_records):
            out[f"records_{rank}"] = array_digest(records)
    if extra:
        with np.load(ckpt / DIST_STATE) as data:
            out[DIST_STATE] = sha(
                *(k.encode() + array_digest(data[k]).encode() for k in sorted(data.files))
            )
    return out


@pytest.mark.timeout(300)
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("n_ranks", [1, 3, 4])
def test_run_writes_the_pinned_bytes(pop, tmp_path, n_ranks, mode):
    assert run_digests(pop, n_ranks, mode, tmp_path) == DIGESTS[(n_ranks, mode)]
