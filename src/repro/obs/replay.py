"""The file formats of :mod:`repro.obs`, and a CLI that reads them back.

Usage::

    python -m repro.obs.replay trace.jsonl              # print a summary
    python -m repro.obs.replay trace.jsonl --chrome out.json
    python -m repro.obs.replay trace.jsonl --packet 42  # one packet's hops
    python -m repro.obs.replay spans.jsonl              # engine spans

Every artifact the package writes goes through one of three writers
here: :func:`write_events` (JSONL records, read back by
:func:`load_events`), :func:`write_json` (one JSON document) and
:func:`write_rows` (a CSV table).  Two record families share the JSONL
format:

* packet trace events (:meth:`repro.obs.tracer.PacketTracer.iter_events`)
  -- each carrying at least ``type``, ``cycle`` and ``packet_id``;
* engine records (``"type": "span"``) from
  :class:`repro.obs.manifest.SweepTelemetry` /
  :class:`~repro.obs.manifest.SearchTrace` -- per-sweep-point wall-clock
  spans and per-step search telemetry.

A file may mix both.  The Chrome renderings (:func:`packets_to_chrome`,
:func:`spans_to_chrome`, :func:`to_chrome`) and the span summary
(:func:`summarize_spans`) work on these records, so ``--chrome`` on a
trace file rewrites the tracer's own Chrome document byte for byte.

The modules ``import repro.obs`` loads (tracer, sampler, metrics) import
from here inside their functions: were this module imported with the
package, ``python -m repro.obs.replay`` would find itself already loaded
and warn.
"""

from __future__ import annotations

import csv
import json
import pathlib
import sys
from typing import Dict, Iterable, List, Optional, Sequence


def _create(path) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_events(path, records: Iterable[dict]) -> pathlib.Path:
    """Write one compact JSON object per line; returns the path written."""
    path = _create(path)
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":")))
            handle.write("\n")
    return path


def write_json(path, document, indent: Optional[int] = None) -> pathlib.Path:
    """Write one JSON document; returns the path written.

    Chrome traces stay on one line (``indent=None``); reports meant for
    reading pass ``indent=1`` and end with a newline.
    """
    text = json.dumps(document, indent=indent)
    if indent is not None:
        text += "\n"
    path = _create(path)
    path.write_text(text, encoding="utf-8")
    return path


def write_rows(
    path, rows: Sequence[dict], fieldnames: Optional[Sequence[str]] = None
) -> pathlib.Path:
    """Write flat dicts as CSV; returns the path written.

    ``fieldnames`` picks and orders the columns (default: the first
    row's keys); without it an empty ``rows`` is a ``ValueError``.
    """
    if fieldnames is None:
        if not rows:
            raise ValueError("nothing to export: rows is empty")
        fieldnames = list(rows[0])
    path = _create(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k) for k in fieldnames})
    return path


def load_events(path) -> List[dict]:
    """Read a JSONL trace file into a list of event dicts."""
    events = []
    with pathlib.Path(path).open() as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: not valid JSON ({exc})"
                ) from None
    return events


def split_records(events: List[dict]):
    """Partition mixed JSONL records into (trace_events, span_records)."""
    trace = [e for e in events if e.get("type") != "span"]
    spans = [e for e in events if e.get("type") == "span"]
    return trace, spans


def packets_to_chrome(records: Iterable[dict]) -> List[dict]:
    """Packet trace events in Chrome ``trace_event`` form (``ts`` = cycle).

    Each packet becomes one timeline row (``tid`` = packet id): a
    ``B``/``E`` duration pair spanning its first event to its delivery,
    with instant events for every VC allocation and link traversal in
    between.
    """
    by_packet: Dict[int, List[dict]] = {}
    for record in records:
        by_packet.setdefault(record["packet_id"], []).append(record)
    out: List[dict] = []
    for pid in sorted(by_packet):
        events = by_packet[pid]
        first = events[0]
        name = f"pkt{pid}"
        if first["type"] == "enqueue":
            name = f"pkt{pid} {first['src']}->{first['dst']}"
        out.append({
            "name": name, "cat": "packet", "ph": "B", "ts": first["cycle"],
            "pid": 0, "tid": pid,
            "args": {k: v for k, v in first.items() if k != "type"},
        })
        end_cycle = events[-1]["cycle"]
        for event in events:
            kind = event["type"]
            if kind == "link":
                label = f"r{event['src_router']}->r{event['dst_router']}"
                cat = "hop"
            elif kind == "vc_alloc":
                label = (f"VA r{event['router']} "
                         f"p{event['out_port']}v{event['out_vc']}")
                cat = "va"
            else:
                if kind == "delivered":
                    end_cycle = event["cycle"]
                continue
            out.append({  # an instant event on the packet's row
                "name": label, "cat": cat, "ph": "i", "s": "t",
                "ts": event["cycle"], "pid": 0, "tid": pid,
            })
        out.append({
            "name": name, "cat": "packet", "ph": "E", "ts": end_cycle,
            "pid": 0, "tid": pid,
        })
    return out


def spans_to_chrome(spans: Iterable[dict]) -> List[dict]:
    """Sweep-point spans as Chrome complete ("X") events, one track per
    worker.

    ``ts`` is microseconds since the earliest span start; spans with no
    recorded start (cache hits recorded parent-side) sit at 0.
    """
    sweep = [s for s in spans if s["kind"] == "sweep_point"]
    starts = [s["start_s"] for s in sweep if s["start_s"] is not None]
    origin = min(starts) if starts else 0.0
    return [
        {
            "name": span["name"],
            "cat": "sweep",
            "ph": "X",
            "ts": 0.0 if span["start_s"] is None
            else (span["start_s"] - origin) * 1e6,
            "dur": span["sim_s"] * 1e6,
            "pid": "sweep",
            "tid": f"worker-{span['worker']}",
            "args": {
                "queue_wait_s": span["queue_wait_s"],
                "cache_hit": span["cache_hit"],
                "attempts": span["attempts"],
                "error": span["error"],
                "config_digest": span["config_digest"][:12],
            },
        }
        for span in sweep
    ]


def to_chrome(records: Iterable[dict]) -> Dict[str, object]:
    """The Chrome ``trace_event`` document of a JSONL record stream:
    packet rows (:func:`packets_to_chrome`) then sweep spans
    (:func:`spans_to_chrome`)."""
    trace, spans = split_records(list(records))
    return {
        "traceEvents": packets_to_chrome(trace) + spans_to_chrome(spans),
        "displayTimeUnit": "ns",
        "otherData": {"time_unit": "cycle"},
    }


def summarize_spans(spans: Iterable[dict]) -> Dict[str, object]:
    """Headline numbers of the sweep-point spans among ``spans`` (the
    run manifest's ``sweep_summary``)."""
    sweep = [s for s in spans if s["kind"] == "sweep_point"]
    return {
        "points": len(sweep),
        "cache_hits": sum(1 for s in sweep if s["cache_hit"]),
        "errors": sum(1 for s in sweep if s["error"]),
        "retried_points": sum(1 for s in sweep if s["attempts"] > 1),
        "total_sim_s": round(sum(s["sim_s"] for s in sweep), 6),
        "total_queue_wait_s": round(
            sum(s["queue_wait_s"] for s in sweep), 6
        ),
        "workers": sorted({s["worker"] for s in sweep}),
    }


def format_span_summary(spans: List[dict]) -> str:
    """Printable summary of engine span records."""
    summary = summarize_spans(spans)
    lines = [
        f"sweep points     {summary['points']} "
        f"({summary['cache_hits']} cache hits, "
        f"{summary['retried_points']} retried, {summary['errors']} errors)"
    ]
    if summary["points"]:
        lines.append(
            f"sweep wall time  sim {summary['total_sim_s']:.3f}s, "
            f"queue wait {summary['total_queue_wait_s']:.3f}s"
        )
        workers = ", ".join(str(w) for w in summary["workers"])
        lines.append(f"workers          {workers}")
    bests = [s["best"] for s in spans if s["kind"].startswith("search")]
    if bests:
        lines.append(f"search records   {len(bests)} (best {max(bests):.6f})")
    return "\n".join(lines)


def summarize(events: List[dict]) -> Dict[str, object]:
    """Aggregate a trace into headline numbers."""
    by_type: Dict[str, int] = {}
    packets = set()
    delivered: List[dict] = []
    router_events: Dict[int, int] = {}
    first_cycle: Optional[int] = None
    last_cycle: Optional[int] = None
    for event in events:
        kind = event.get("type", "?")
        by_type[kind] = by_type.get(kind, 0) + 1
        pid = event.get("packet_id")
        if pid is not None:
            packets.add(pid)
        cycle = event.get("cycle")
        if cycle is not None:
            first_cycle = cycle if first_cycle is None else min(first_cycle, cycle)
            last_cycle = cycle if last_cycle is None else max(last_cycle, cycle)
        if kind == "delivered":
            delivered.append(event)
        router = event.get("router", event.get("src_router"))
        if router is not None:
            router_events[router] = router_events.get(router, 0) + 1
    hops = [e["hops"] for e in delivered if "hops" in e]
    latencies = [e["latency"] for e in delivered if "latency" in e]
    hottest = sorted(
        router_events.items(), key=lambda item: (-item[1], item[0])
    )[:5]
    return {
        "events": len(events),
        "events_by_type": by_type,
        "packets": len(packets),
        "delivered": len(delivered),
        "first_cycle": first_cycle,
        "last_cycle": last_cycle,
        "avg_hops": sum(hops) / len(hops) if hops else None,
        "max_hops": max(hops) if hops else None,
        "avg_latency_cycles": (
            sum(latencies) / len(latencies) if latencies else None
        ),
        "max_latency_cycles": max(latencies) if latencies else None,
        "hottest_routers": hottest,
    }


def format_summary(summary: Dict[str, object]) -> str:
    """Render :func:`summarize` output as printable text."""
    lines = [
        f"events           {summary['events']}",
        f"packets          {summary['packets']} "
        f"({summary['delivered']} delivered)",
        f"cycle span       {summary['first_cycle']}..{summary['last_cycle']}",
    ]
    if summary["avg_hops"] is not None:
        lines.append(
            f"hops             avg {summary['avg_hops']:.2f}, "
            f"max {summary['max_hops']}"
        )
    if summary["avg_latency_cycles"] is not None:
        lines.append(
            f"latency (cycles) avg {summary['avg_latency_cycles']:.2f}, "
            f"max {summary['max_latency_cycles']}"
        )
    lines.append("events by type:")
    for kind in sorted(summary["events_by_type"]):
        lines.append(f"  {kind:<16} {summary['events_by_type'][kind]}")
    if summary["hottest_routers"]:
        hot = ", ".join(
            f"r{router} ({count})"
            for router, count in summary["hottest_routers"]
        )
        lines.append(f"hottest routers: {hot}")
    return "\n".join(lines)


def format_packet(events: List[dict], packet_id: int) -> str:
    """Hop-by-hop listing of one packet's trace."""
    mine = [e for e in events if e.get("packet_id") == packet_id]
    if not mine:
        return f"packet {packet_id}: not in trace"
    lines = [f"packet {packet_id}: {len(mine)} events"]
    for event in mine:
        detail = ", ".join(
            f"{k}={v}"
            for k, v in event.items()
            if k not in ("type", "cycle", "packet_id")
        )
        lines.append(f"  cycle {event['cycle']:>6}  {event['type']:<10} {detail}")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    args = list(argv)
    chrome_out = None
    packet_id = None
    if "--chrome" in args:
        index = args.index("--chrome")
        if index + 1 >= len(args):
            print("--chrome needs an output path", file=sys.stderr)
            return 2
        chrome_out = args[index + 1]
        args = args[:index] + args[index + 2:]
    if "--packet" in args:
        index = args.index("--packet")
        if index + 1 >= len(args):
            print("--packet needs a packet id", file=sys.stderr)
            return 2
        try:
            packet_id = int(args[index + 1])
        except ValueError:
            print(f"--packet needs an integer id, got {args[index + 1]!r}",
                  file=sys.stderr)
            return 2
        args = args[:index] + args[index + 2:]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        events = load_events(args[0])
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    trace_events, spans = split_records(events)
    if packet_id is not None:
        listing = format_packet(trace_events, packet_id)
        print(listing)
        if listing.endswith("not in trace"):
            return 1
    else:
        if trace_events:
            print(format_summary(summarize(trace_events)))
        if spans:
            if trace_events:
                print()
            print(format_span_summary(spans))
        if not trace_events and not spans:
            print("empty trace")
    if chrome_out is not None:
        print(f"wrote {write_json(chrome_out, to_chrome(events))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
