"""Tab. 9 — single- vs multi-frame mix, and the necessity of reassembly.

Paper: UDS traffic (Car A) is 55.1 % single frames / 32.0 % multi-frame
(rest flow control); KWP 2000 over VW TP 2.0 (Cars B+C) is 24.8 % last
packets vs 75.2 % frames that must wait for successors.  The claim to
preserve: a large share of frames is unusable without payload reassembly.
"""

import pytest

from repro.core import assemble, multiframe_statistics
from repro.core.fields import extract_fields


def test_table9_uds_mix(benchmark, report_file, bench_artifact, fleet):
    __, capture = fleet.capture("A")

    stats = benchmark.pedantic(
        lambda: multiframe_statistics(list(capture.can_log)), rounds=1, iterations=1
    )
    total = stats["total"]
    single_pct = stats["single"] / total
    multi_pct = stats["multi"] / total
    report_file(
        f"UDS (Car A): {total} frames — single {stats['single']} "
        f"({single_pct:.1%}, paper 55.1%), multi {stats['multi']} "
        f"({multi_pct:.1%}, paper 32.0%), control {stats['control']}"
    )
    bench_artifact(
        {
            "uds_single": stats["single"],
            "uds_multi": stats["multi"],
            "uds_control": stats["control"],
            "uds_total": total,
        },
        {
            "uds_single": "count",
            "uds_multi": "count",
            "uds_control": "count",
            "uds_total": "count",
        },
    )
    # Shape: both kinds are a substantial share of traffic.
    assert multi_pct > 0.15
    assert single_pct > 0.15


def test_table9_kwp_mix(benchmark, report_file, bench_artifact, fleet):
    def merged_stats():
        totals = {"single": 0, "multi": 0, "control": 0, "total": 0}
        for key in ("B", "C"):
            __, capture = fleet.capture(key)
            stats = multiframe_statistics(list(capture.can_log))
            for name in totals:
                totals[name] += stats[name]
        return totals

    stats = benchmark.pedantic(merged_stats, rounds=1, iterations=1)
    # The paper's accounting (3,425 + 1,131 = 4,556) splits *all* captured
    # frames into "last frames" vs "needs to wait for the next frames".
    total = stats["total"]
    last_pct = stats["single"] / total
    waiting_pct = 1.0 - last_pct
    report_file(
        f"KWP 2000 (Cars B+C): {total} frames — "
        f"last frames {stats['single']} ({last_pct:.1%}, paper 24.8%), "
        f"waiting for next {total - stats['single']} "
        f"({waiting_pct:.1%}, paper 75.2%)"
    )
    bench_artifact(
        {"kwp_last_frames": stats["single"], "kwp_total": total},
        {"kwp_last_frames": "count", "kwp_total": "count"},
    )
    # Shape: the large majority of KWP frames cannot be decoded alone.
    assert waiting_pct > 0.55


def test_table9_reassembly_necessity(benchmark, report_file, bench_artifact, fleet):
    """Without reassembly, multi-frame payloads are unreadable.

    Field extraction over raw per-frame 'payloads' (the LibreCAN/READ view)
    must find strictly fewer ESVs than extraction over assembled messages.
    """
    __, capture = fleet.capture("A")

    def compare():
        frames = list(capture.can_log)
        messages = assemble(frames)
        with_assembly = len(extract_fields(messages).observations)
        # Naive view: treat every frame's data field as a complete payload.
        from repro.core.assembly import AssembledMessage, MessageTable

        naive = MessageTable.from_messages(
            AssembledMessage(f.data, f.can_id, f.timestamp, f.timestamp, 1)
            for f in frames
        )
        without_assembly = len(extract_fields(naive).observations)
        return with_assembly, without_assembly

    with_assembly, without_assembly = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    report_file(
        f"ESV observations with reassembly: {with_assembly}; "
        f"treating frames as payloads: {without_assembly}"
    )
    bench_artifact(
        {
            "obs_with_assembly": with_assembly,
            "obs_without_assembly": without_assembly,
        },
        {"obs_with_assembly": "count", "obs_without_assembly": "count"},
    )
    assert with_assembly > 2 * without_assembly
