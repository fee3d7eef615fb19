#!/usr/bin/env python3
"""Checks a tsbench trace file (Chrome trace-event JSON).

It must parse, and every request's phase spans -- due_to_submit,
queue_wait, service -- must follow one another and sum to the request's
latency within 1 us.

Usage: python3 check_trace.py TRACE.json
"""
import json
import sys
from collections import defaultdict

PHASES = ["due_to_submit", "queue_wait", "service"]
TOLERANCE_US = 1.0


def check(path):
    with open(path) as f:
        trace = json.load(f)
    requests = defaultdict(list)
    for event in trace["traceEvents"]:
        if event.get("cat") == "request":
            requests[event["tid"]].append(event)
    if not requests:
        return "no request spans"
    worst = 0.0
    for tid, spans in requests.items():
        if [e["name"] for e in spans] != PHASES:
            return f"request {tid}: phases {[e['name'] for e in spans]}"
        for before, after in zip(spans, spans[1:]):
            gap = abs(before["ts"] + before["dur"] - after["ts"])
            if gap > TOLERANCE_US:
                return f"request {tid}: {gap:.3f} us gap before {after['name']}"
        latency_us = spans[0]["args"]["latency_ns"] / 1000.0
        worst = max(worst, abs(sum(e["dur"] for e in spans) - latency_us))
    if worst > TOLERANCE_US:
        return f"phase spans miss a request latency by {worst:.3f} us"
    print(f"trace ok: {len(trace['traceEvents'])} events, {len(requests)} "
          f"requests, max |phases - latency| = {worst:.6f} us")
    return None


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    error = check(sys.argv[1])
    if error:
        sys.exit(f"check_trace: {sys.argv[1]}: {error}")


if __name__ == "__main__":
    main()
