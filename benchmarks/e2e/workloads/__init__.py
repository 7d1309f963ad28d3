"""The five workloads, by the name later issues cite."""

from . import chain_week, query_windows, serve_mix, simlog_month, synth_windows

WORKLOADS = {
    wl.NAME: wl
    for wl in (chain_week, simlog_month, synth_windows, query_windows, serve_mix)
}
