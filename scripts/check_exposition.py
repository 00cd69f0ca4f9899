#!/usr/bin/env python3
"""Lint a Prometheus text-format exposition (version 0.0.4).

Usage:
    scripts/check_exposition.py FILE [FILE...]

Validates the invariants every --metrics-out snapshot promises:

  - metric and label names match the Prometheus charset
    ([a-zA-Z_:][a-zA-Z0-9_:]* and [a-zA-Z_][a-zA-Z0-9_]*)
  - every family has exactly one # HELP and one # TYPE line, HELP
    before TYPE, both before any sample of the family
  - # TYPE values come from the known set
  - families appear in sorted order (the writer iterates a sorted
    map; an unsorted exposition means samples leaked out of
    writeExposition())
  - sample names belong to the most recent family (plus the _bucket/
    _sum/_count children of histogram and summary families)
  - label blocks parse, with \\\\ \\" \\n escapes, and no series
    (name + label set) appears twice
  - sample values parse as floats (+Inf/-Inf/NaN allowed)

Exits nonzero listing every violation. Used by ctest over a fig3
sweep's snapshot (metrics_* fixtures) and a campaign sweep's, which
adds the ser_prof_campaign_* families (campaign_* fixtures).
"""

import re
import sys

METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
KNOWN_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}


def parse_labels(block, complain):
    """Parse the inside of a {...} label block into a list of
    (name, value) pairs, validating names and escape sequences."""
    labels = []
    i = 0
    while i < len(block):
        eq = block.find("=", i)
        if eq < 0:
            complain("label block %r: missing '='" % block)
            return labels
        name = block[i:eq]
        if not LABEL_NAME.match(name):
            complain("bad label name %r" % name)
        if eq + 1 >= len(block) or block[eq + 1] != '"':
            complain("label %r: value is not quoted" % name)
            return labels
        i = eq + 2
        value = []
        while i < len(block) and block[i] != '"':
            if block[i] == "\\":
                if i + 1 >= len(block):
                    complain("label %r: dangling escape" % name)
                    return labels
                if block[i + 1] not in ("\\", '"', "n"):
                    complain("label %r: unknown escape \\%s"
                             % (name, block[i + 1]))
                value.append(block[i:i + 2])
                i += 2
            else:
                value.append(block[i])
                i += 1
        if i >= len(block):
            complain("label %r: unterminated value" % name)
            return labels
        i += 1  # closing quote
        labels.append((name, "".join(value)))
        if i < len(block):
            if block[i] != ",":
                complain("label block %r: expected ',' after value"
                         % block)
                return labels
            i += 1
    return labels


def is_float(text):
    if text in ("+Inf", "-Inf", "Inf", "NaN"):
        return True
    try:
        float(text)
        return True
    except ValueError:
        return False


def lint(path):
    errors = []
    state = {"lineno": 0}

    def complain(msg):
        errors.append("%s:%d: %s" % (path, state["lineno"], msg))

    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        return ["%s: %s" % (path, exc)]

    families = {}   # name -> {"help": bool, "type": str|None,
                    #          "samples": int}
    order = []      # family names in first-appearance order
    current = None  # family of the most recent HELP/TYPE
    seen_series = set()

    def family(name):
        if name not in families:
            families[name] = {"help": False, "type": None,
                              "samples": 0}
            order.append(name)
        return families[name]

    for lineno, line in enumerate(lines, 1):
        state["lineno"] = lineno
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            kind = line[2:6]
            rest = line[7:]
            name = rest.split(" ", 1)[0]
            if not METRIC_NAME.match(name):
                complain("bad metric name %r in # %s" % (name, kind))
                continue
            fam = family(name)
            current = name
            if fam["samples"]:
                complain("# %s %s appears after its samples"
                         % (kind, name))
            if kind == "HELP":
                if fam["help"]:
                    complain("duplicate # HELP for %s" % name)
                if fam["type"] is not None:
                    complain("# HELP %s after its # TYPE" % name)
                fam["help"] = True
            else:
                mtype = rest.split(" ", 1)[1].strip() \
                    if " " in rest else ""
                if mtype not in KNOWN_TYPES:
                    complain("unknown # TYPE %r for %s"
                             % (mtype, name))
                if fam["type"] is not None:
                    complain("duplicate # TYPE for %s" % name)
                fam["type"] = mtype
            continue
        if line.startswith("#"):
            continue  # free-form comment

        # A sample: name[{labels}] value [timestamp]
        match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
                         r"(\{(.*)\})?\s+(\S+)(\s+-?\d+)?\s*$",
                         line)
        if not match:
            complain("unparseable sample line %r" % line)
            continue
        name, _, labels_block, value, _ = match.groups()
        if current is None:
            complain("sample %s before any # HELP/# TYPE" % name)
        else:
            fam = families[current]
            allowed = {current}
            if fam["type"] in ("histogram", "summary"):
                allowed |= {current + "_bucket", current + "_sum",
                            current + "_count"}
                if fam["type"] == "summary":
                    allowed.discard(current + "_bucket")
            if name not in allowed:
                complain("sample %s does not belong to family %s"
                         % (name, current))
            else:
                fam["samples"] += 1
        labels = parse_labels(labels_block, complain) \
            if labels_block else []
        series = (name, tuple(sorted(labels)))
        if series in seen_series:
            complain("duplicate series %s{%s}"
                     % (name, ",".join("%s=%s" % l for l in labels)))
        seen_series.add(series)
        if not is_float(value):
            complain("sample %s: value %r is not a float"
                     % (name, value))

    state["lineno"] = 0
    for name in order:
        fam = families[name]
        if not fam["help"]:
            complain("family %s has no # HELP" % name)
        if fam["type"] is None:
            complain("family %s has no # TYPE" % name)
        if not fam["samples"]:
            complain("family %s has no samples" % name)
    if order != sorted(order):
        complain("families are not sorted: %s"
                 % ", ".join(order))
    if not order:
        complain("no metric families found")
    return errors


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    failed = False
    for path in sys.argv[1:]:
        errors = lint(path)
        for error in errors:
            print(error)
        if errors:
            failed = True
        else:
            print("%s: exposition ok" % path)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
