"""Aggregate trace spans into per-name totals.

A span is a dict with ``name``, ``start``, ``end``, ``id``, ``parent``
(``None`` at the root), ``run`` and optionally ``attrs`` (numbers summed per
name). Span ids are unique within one run; the run id keeps runs apart.
"""

from __future__ import annotations

import json


def read_jsonl(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict:
    """Map (run, id) to the span's duration minus the time its children cover.

    Children are clipped to the parent's interval before their union is
    taken, so overlapping or overhanging children never count twice.
    """
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["run"], s["parent"]), []).append(s)
    out = {}
    for s in spans:
        key = (s["run"], s["id"])
        kids = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(key, [])
            if c["end"] > s["start"] and c["start"] < s["end"]
        ]
        out[key] = (s["end"] - s["start"]) - _covered(kids)
    return out


def _ancestor_names(span: dict, by_key: dict) -> list[str]:
    names = []
    parent = by_key.get((span["run"], span["parent"]))
    while parent is not None:
        names.append(parent["name"])
        parent = by_key.get((parent["run"], parent["parent"]))
    return names


def aggregate(spans: list[dict]) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, summed attrs.

    Inclusive time counts only the outermost span of a name on each path,
    so a function that (indirectly) calls itself is not counted twice.
    """
    by_key = {(s["run"], s["id"]): s for s in spans}
    selfs = self_times(spans)
    out: dict = {}
    for s in spans:
        entry = out.setdefault(
            s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": {}}
        )
        entry["calls"] += 1
        entry["self_s"] += selfs[(s["run"], s["id"])]
        for attr, value in (s.get("attrs") or {}).items():
            entry["attrs"][attr] = entry["attrs"].get(attr, 0.0) + value
        if s["name"] not in _ancestor_names(s, by_key):
            entry["s"] += s["end"] - s["start"]
    return out


def breakdown(spans: list[dict], root_name: str) -> dict[str, float]:
    """Inclusive seconds of each span name below spans named ``root_name``."""
    by_key = {(s["run"], s["id"]): s for s in spans}
    out: dict[str, float] = {}
    for s in spans:
        above = _ancestor_names(s, by_key)
        if root_name in above and s["name"] not in above:
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"])
    return dict(sorted(out.items(), key=lambda item: -item[1]))
