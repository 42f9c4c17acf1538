"""Self-test of the benchmark: every workload at toy size, then corruptions.

    python3 perfbench/selftest.py

For each workload, runs the benchmark untraced and traced at its toy
size and requires a correct result (oracles pass, runs repeat byte for
byte, the traced run writes the CLI's bytes). Then it corrupts one
output file at a time (a matrix cell, a ledger row, an SVG byte, a
report value, a DOT edge, an evaluation count) and requires the oracle
meant to catch it to reject it. Exits 1 if any check does not hold.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import sys

import run  # makes troopnet importable
import oracles
import workloads

SEED = 1


def _edit(path: str, fn) -> None:
    with open(path, "rb") as fh:
        data = fh.read()
    new = fn(data)
    if new == data:
        raise RuntimeError(f"corruption left {path} unchanged")
    with open(path, "wb") as fh:
        fh.write(new)


def _change_matrix_cell(data: bytes) -> bytes:
    lines = data.split(b"\n")
    row = lines[1].split(b",")
    k = next(i for i, cell in enumerate(row[1:], start=1) if cell)
    row[k] = repr(float(row[k]) / 2.0).encode()
    lines[1] = b",".join(row)
    return b"\n".join(lines)


def _drop_ledger_row(data: bytes) -> bytes:
    rows = list(csv.reader(io.StringIO(data.decode())))
    # the last row that records a joint presence (two names, or a pair)
    k = max(i for i, row in enumerate(rows[1:], start=1) if "," in row[1])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows[:k] + rows[k + 1:])
    return out.getvalue().encode()


def _change_svg_byte(data: bytes) -> bytes:
    k = data.index(b"</text>") - 1
    return data[:k] + (b"8" if data[k:k + 1] != b"8" else b"7") + data[k + 1:]


def _change_strength(data: bytes) -> bytes:
    report = json.loads(data)
    report["individuals"][0]["strength"] += 0.5
    return json.dumps(report).encode()


def _change_eigenvector(data: bytes) -> bytes:
    report = json.loads(data)
    report["individuals"][0]["eigenvector"] *= 0.9
    return json.dumps(report).encode()


def _drop_dot_edge(data: bytes) -> bytes:
    lines = data.split(b"\n")
    k = next(i for i, line in enumerate(lines) if b" -- " in line)
    return b"\n".join(lines[:k] + lines[k + 1:])


def _json_edit(key_path: list, fn):
    def edit(data: bytes) -> bytes:
        doc = json.loads(data)
        node = doc
        for key in key_path[:-1]:
            node = node[key]
        node[key_path[-1]] = fn(node[key_path[-1]])
        return json.dumps(doc).encode()

    return edit


def _corruptions(workload: str, out_dir: str) -> list[tuple[str, str, object]]:
    """(description, file, edit, oracle that must reject it) tuples."""
    if workload == "score":
        first = sorted(n for n in os.listdir(out_dir) if n.startswith("det-"))[0]
        return [
            ("ground-truth count off by one", first, _json_edit(["n_ground_truths"], lambda v: v + 1), "score"),
            ("false-negative rate raised", first, _json_edit(["false_negative_rate"], lambda v: v + 0.2), "score"),
            ("top-1 accuracy lowered", "id.json", _json_edit(["top_k", "1"], lambda v: v - 0.01), "score"),
            ("sample count off by one", "id.json", _json_edit(["n_samples"], lambda v: v + 1), "score"),
        ]
    return [
        ("changed matrix cell", "matrix.csv", _change_matrix_cell, "matrix"),
        ("dropped ledger row", "ledger.csv", _drop_ledger_row, "matrix"),
        ("changed SVG byte", "network.svg", _change_svg_byte, "drawings"),
        ("changed strength", "report.json", _change_strength, "report"),
        ("changed eigenvector entry", "report.json", _change_eigenvector, "report"),
        ("dropped DOT edge", "network.dot", _drop_dot_edge, "drawings"),
    ]


def _reject_check(workload: str, in_dir: str, out_dir: str, reference: dict, corrupt_dir: str) -> list[str]:
    failures = []
    original = oracles.digest(out_dir)
    for what, name, edit, oracle in _corruptions(workload, out_dir):
        shutil.rmtree(corrupt_dir, ignore_errors=True)
        shutil.copytree(out_dir, corrupt_dir)
        _edit(os.path.join(corrupt_dir, name), edit)
        caught = [p for p in oracles.check(workload, in_dir, corrupt_dir, reference) if p.startswith(oracle + ":")]
        # the digest check of repeated runs must see the change too
        changed = oracles.digest(corrupt_dir) != original
        status = "rejected" if caught and changed else "NOT REJECTED"
        print(f"  {what:32s} {status}: {caught[0] if caught else '-'}")
        if status != "rejected":
            failures.append(f"{workload}: {what} not rejected")
    return failures


def _declared_metrics() -> dict[bool, dict[str, str]]:
    """Metric name -> unit that BENCHMARK.json declares, for trace off and on."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {trace: {m["name"]: m["unit"] for m in spec[key]} for trace, key in ((False, "end_to_end"), (True, "per_layer"))}


def main() -> int:
    failures = []
    declared = _declared_metrics()
    base = run._fresh_dir(os.path.join(run.WORK, "selftest"))
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result = run.Run(workload, SEED, 0.0, trace, toy=True).execute()
            ok = result["correct"] and result["failed"] == 0
            print(f"{workload} toy trace={int(trace)}: runs={result['attempted']} correct={ok}")
            if not ok:
                failures.append(f"{workload}: toy run with trace={int(trace)} not correct")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != declared[trace]:
                failures.append(f"{workload}: metrics with trace={int(trace)} differ from BENCHMARK.json")
        in_dir = os.path.join(base, workload, "in")
        out_dir = run._fresh_dir(os.path.join(base, workload, "out"))
        inputs = run.setup(workload, SEED, workloads.SIZES[workload][1], in_dir)
        cmds = workloads.commands(workload, in_dir, out_dir, SEED)
        _, _, code = run.run_commands(cmds, os.path.join(base, "commands.log"))
        problems = oracles.check(workload, in_dir, out_dir, inputs.reference) if code == 0 else [f"exit {code}"]
        if problems:
            failures.append(f"{workload}: real outputs rejected: {problems}")
            continue
        failures += _reject_check(workload, in_dir, out_dir, inputs.reference, os.path.join(base, workload, "corrupt"))
    shutil.rmtree(base, ignore_errors=True)
    for f in failures:
        print("FAIL", f, file=sys.stderr)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
