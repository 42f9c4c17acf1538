"""troopnet benchmark: four batch workloads through the real CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload troop --seed 1 --seconds 26 --trace 0

Workloads (sizes in workloads.py):

    troop  pipeline, video-level ledger, 42 individuals in 6 matrilines
    crowd  pipeline --mode proximal, 24 individuals in one matriline
    wide   cooccur --ledger, network, layout on 160 individuals
    score  eval-det per video, then eval-id

Load model: one closed loop. Each ``python -m troopnet.cli`` command
(PYTHONPATH=src, default --jobs 1) starts after the previous one exits;
one workload run is all of a workload's commands. Runs repeat for
about --seconds (at least three). Inputs are made from --seed
before the first run.

--trace 0 prints the end-to-end metrics:

    wall_s       median wall time of one workload run, interpreter
                 start-ups included, at the reference host speed (below)
    det_per_s    input detections / wall_s (ledger sightings on wide)
    peak_rss_mb  median over workload runs of the largest child ru_maxrss
    setup_s      median set-up time (synth calls plus file writes) at the
                 reference host speed; the set-up repeats between workload
                 runs whenever set-ups have taken less than a tenth of the
                 runs' time, and at least five times in all
    ledger_f1    F1 of the recovered ledger against its reference
                 (see oracles.ledger_f1; matched detections on score)

Reference host speed: the virtual CPUs of a shared host change speed by
half and more over stretches of seconds to minutes, which no run length
the benchmark can afford averages out. So a fixed probe (calibrate.py,
standard library and numpy only, never troopnet) runs in a fresh process
before the first command and after every command, and each timing is
multiplied by (REFERENCE_PROBE_S / probe time) ** PROBE_ELASTICITY, with
the mean of the probes before and after a command, and the probe before
a set-up. A workload run's scaled time is the sum over its commands.
The timings read as seconds on a host where the probe takes
REFERENCE_PROBE_S. The power is below 1 because the probe's time moves
more than the workloads' when the host's load changes: in ten-seed sets
on a 2-vCPU host, full scaling (power 1) held the runs of one set within
0.14 of their median but let the median of a later set of the same code
drift by up to 23 % (crowd's setup_s), no scaling let it drift by 43 %
(troop's wall_s), and the power 0.75 kept every drift under 18 %. A change
to troopnet moves the commands' times and not the probe's, so it moves
the scaled timings in proportion. Raw and scaled samples and the probe
times are in the record.

--trace 1 alternates untraced runs with in-process traced runs
(traced.py) and prints the per-layer metrics: medians of span times per
module and of self time per layer, boundary counts, and the tracing
overhead: traced wall + commands * cli.startup_s - untraced wall, all
medians. The traced calls run warm in one process, so it can be negative.

A workload run fails when a command exits non-zero, an oracle rejects its
outputs (oracles.py), or its output digest differs from the first correct
run's. The failed share (fail_ratio) is reported through the result's
``failed`` and ``attempted`` counts. The result is not ``correct`` when a
run failed or, when tracing, the traced run's files differ from the
CLI's. Each invocation leaves a record (samples, counts, problems, and
nproc, Python, numpy, scipy and commit) under .perfbench-work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
WORKLOADS = ("troop", "crowd", "wide", "score")
# set-ups repeat between workload runs while their time is below this share
# of the workload runs' time, and at least SETUP_MIN times
SETUP_SHARE = 0.1
SETUP_MIN = 5
MIN_RUNS = 3
STARTUP_REPEATS = 3
CALIBRATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "calibrate.py")
# about the probe's time on a 2-vCPU Xeon host; it sets the scale of the
# timing metrics, so it must stay fixed
REFERENCE_PROBE_S = 0.35
# below 1: the probe's time moves more than the workloads' (see the module doc)
PROBE_ELASTICITY = 0.75


def _require_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "troopnet", "cli.py")):
        sys.exit(f"perfbench: no troopnet sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import troopnet

    if os.path.dirname(os.path.abspath(troopnet.__file__)) != os.path.join(SRC, "troopnet"):
        sys.exit(f"perfbench: imported troopnet from {troopnet.__file__}, not from {SRC}")


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def run_commands(cmds: list[list[str]], log_path: str) -> tuple[float, float, int]:
    """Run troopnet subcommands one after another, each in a fresh process.

    Returns wall seconds, the largest child ru_maxrss in MB, and the first
    non-zero exit code (0 when all succeeded).
    """
    env = _child_env()
    peak_kb = 0
    t0 = time.perf_counter()
    with open(log_path, "ab") as log:
        for cmd in cmds:
            proc = subprocess.Popen(
                [sys.executable, "-m", "troopnet.cli", *cmd],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            peak_kb = max(peak_kb, usage.ru_maxrss)
            if proc.returncode != 0:
                return time.perf_counter() - t0, peak_kb / 1024.0, proc.returncode
    return time.perf_counter() - t0, peak_kb / 1024.0, 0


def cli_startup_s(log_path: str) -> float:
    """Median wall time of a fresh process that imports troopnet.cli and exits."""
    env = _child_env()
    times = []
    with open(log_path, "ab") as log:
        for _ in range(STARTUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import troopnet.cli"],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log, check=True,
            )
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_s(log_path: str) -> float:
    """Wall time of one fresh process running the calibration probe."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, CALIBRATE], cwd=ROOT, stdin=subprocess.DEVNULL, stdout=log, stderr=log, check=True
        )
        return time.perf_counter() - t0


def _speed_factor(probe: float) -> float:
    """Factor that takes a timing made when the probe took `probe` seconds
    to the reference host speed."""
    return (REFERENCE_PROBE_S / probe) ** PROBE_ELASTICITY


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def setup(workload: str, seed: int, size, in_dir: str) -> workloads.Inputs:
    """Generate the workload's inputs into a fresh in_dir."""
    _fresh_dir(in_dir)
    return workloads.SETUP[workload](seed, size, in_dir)


def _same_files(a: str, b: str) -> list[str]:
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return [f"traced outputs {sorted(os.listdir(b))} differ from CLI outputs {names}"]
    diff = []
    for name in names:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                diff.append(f"traced {name} differs from the CLI's")
    return diff


def _environment() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit or "unknown",
    }


class Run:
    """One benchmark invocation: set-up, the measured loop, the checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, toy: bool = False):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = workloads.SIZES[workload][1 if toy else 0]
        self.dir = _fresh_dir(os.path.join(WORK, f"{workload}-{seed}-t{int(trace)}{'-toy' if toy else ''}"))
        self.in_dir = os.path.join(self.dir, "in")
        self.out_dir = os.path.join(self.dir, "out")
        self.traced_dir = os.path.join(self.dir, "traced")
        self.log = os.path.join(self.dir, "commands.log")
        self.problems: list[str] = []
        self.walls: list[float] = []
        self.probes: list[float] = []  # untraced: before the first command and after every command
        self.scaled_walls: list[float] = []
        self.rss: list[float] = []
        self.failed = 0
        self.first_digest = None  # digest of the first outputs the oracles accepted

    def cli_run(self, cmds) -> bool:
        """One untraced workload run; True when its outputs are correct.

        Untraced, a probe runs after every command, so that each command
        is timed between two probes and scaled by their mean.
        """
        _fresh_dir(self.out_dir)
        wall = scaled = rss = 0.0
        for cmd in cmds:
            w, r, code = run_commands([cmd], self.log)
            wall += w
            rss = max(rss, r)
            if not self.trace:
                self.probes.append(probe_s(self.log))
                scaled += w * _speed_factor((self.probes[-2] + self.probes[-1]) / 2)
            if code != 0:
                break
        self.walls.append(wall)
        self.scaled_walls.append(scaled)
        self.rss.append(rss)
        if code != 0:
            return self._fail(f"run {len(self.walls)}: a command exited {code}; see {self.log}")
        digest = oracles.digest(self.out_dir)
        if self.first_digest is None:
            if problems := oracles.check(self.workload, self.in_dir, self.out_dir, self.inputs.reference):
                return self._fail(*problems)
            self.first_digest = digest
        elif digest != self.first_digest:
            return self._fail(f"run {len(self.walls)}: outputs differ from the first correct run's")
        return True

    def _fail(self, *problems: str) -> bool:
        self.failed += 1
        self.problems.extend(problems)
        return False

    def execute(self) -> dict:
        self.inputs = setup(self.workload, self.seed, self.size, self.in_dir)
        self.setups = [self.inputs]
        self.setup_probe = [0]  # per set-up, the index of the probe that gauges it
        cmds = workloads.commands(self.workload, self.in_dir, self.out_dir, self.seed)
        self.commands = len(cmds)
        self.record = {
            "workload": self.workload,
            "seed": self.seed,
            "size": vars(self.size),
            "frames_per_video": self.inputs.frames,
            "work_units": self.inputs.work_units,
            "environment": _environment(),
        }
        if self.trace:
            self.startup = cli_startup_s(self.log)
            tracer = traced.Tracer()
            traced_cmds = workloads.commands(self.workload, self.in_dir, self.traced_dir, self.seed)
            self.traced = []
        else:
            self.probes.append(probe_s(self.log))
        start = time.perf_counter()
        last = 0.0
        # start a run only if, as long as the last, it would end at most half a
        # run past --seconds, so that runs end on --seconds on average; and
        # measure at least MIN_RUNS
        while len(self.walls) < MIN_RUNS or time.perf_counter() - start + last / 2 <= self.seconds:
            t0 = time.perf_counter()
            ok = self.cli_run(cmds)
            if self.trace:
                self._traced_run(tracer, traced_cmds, compare=ok)
            self._extra_setups()
            last = time.perf_counter() - t0
        while len(self.setups) < SETUP_MIN:
            self._extra_setup()
        f1 = None
        if self.first_digest is not None:
            f1 = oracles.ledger_f1(self.workload, self.out_dir, self.inputs.reference)
        if self.trace:
            metrics = self._layer_metrics(tracer)
        else:
            metrics = self._end_to_end(f1)
        self.record.update(
            setup_s=[s.build_s + s.write_s for s in self.setups],
            wall_s_samples=self.walls,
            probe_s_samples=self.probes,
            reference_probe_s=REFERENCE_PROBE_S,
            peak_rss_mb_samples=self.rss,
            attempted=len(self.walls),
            failed=self.failed,
            fail_ratio=self.failed / len(self.walls),
            ledger_f1=f1,
            problems=self.problems,
            metrics=metrics,
        )
        with open(os.path.join(self.dir, "record.json"), "w", encoding="utf-8") as fh:
            json.dump(self.record, fh, indent=1, default=str)
        if self.trace:
            with open(os.path.join(self.dir, "spans.jsonl"), "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(s) + "\n" for s in tracer.spans)
        for path in (self.in_dir, self.out_dir, self.traced_dir):
            shutil.rmtree(path, ignore_errors=True)
        return {
            "correct": self.failed == 0 and not self.problems and f1 is not None,
            "attempted": len(self.walls),
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
        }

    def _extra_setups(self) -> None:
        """Repeat the set-up after a workload run until the set-ups' time is
        SETUP_SHARE of the runs', so that its samples spread over the whole
        invocation rather than one stretch of the machine's load."""
        while sum(s.build_s + s.write_s for s in self.setups[1:]) < SETUP_SHARE * sum(self.walls):
            self._extra_setup()

    def _extra_setup(self) -> None:
        extra = os.path.join(self.dir, "setup-extra")
        self.setups.append(setup(self.workload, self.seed, self.size, extra))
        self.setup_probe.append(max(0, len(self.probes) - 1))
        shutil.rmtree(extra)

    def _end_to_end(self, f1) -> dict:
        """Medians of the timings at the reference host speed (see the module doc)."""
        setups = [
            (s.build_s + s.write_s) * _speed_factor(self.probes[k]) for s, k in zip(self.setups, self.setup_probe)
        ]
        self.record.update(wall_s_scaled_samples=self.scaled_walls, setup_s_scaled_samples=setups)
        wall = statistics.median(self.scaled_walls)
        return {
            "wall_s": wall,
            "det_per_s": self.inputs.work_units / wall,
            "peak_rss_mb": statistics.median(self.rss),
            "setup_s": statistics.median(setups),
            "ledger_f1": f1 if f1 is not None else 0.0,
        }

    def _traced_run(self, tracer, cmds, compare: bool) -> None:
        """One in-process traced run; its files must equal the CLI run's."""
        _fresh_dir(self.traced_dir)
        tracer.run += 1
        wall, counts, problems = traced.run_traced(tracer, cmds)
        times = traced.layer_times(tracer.run_spans(tracer.run))
        self.traced.append((wall, times, counts))
        self.problems.extend(problems)
        if compare and not problems:
            self.problems.extend(_same_files(self.out_dir, self.traced_dir))

    def _layer_metrics(self, tracer) -> dict:
        counts = self.traced[-1][2]
        walls = [w for w, _, _ in self.traced]
        times = {k: statistics.median(t[k] for _, t, _ in self.traced) for k in self.traced[0][1]}
        parse_s = times["ingest.parse_stream_s"] + times["ingest.parse_table_s"]
        m = {
            "cli.startup_s": self.startup,
            "cli.commands": self.commands,
            **times,
            **{k: counts[k] for k in traced.COUNT_METRICS},
            "ingest.parse_mb_per_s": counts["parsed_bytes"] / 1e6 / parse_s if parse_s > 0 else 0.0,
            "tracking.identified_ratio": counts["tracking.identified"] / counts["tracking.tracks"]
            if counts["tracking.tracks"]
            else 0.0,
            "tracking.dets_per_frame": counts["ingest.detections"] / counts["ingest.frames"]
            if counts["tracking.tracks"] and counts["ingest.frames"]
            else 0.0,
            "synth.build_s": statistics.median(s.build_s for s in self.setups),
            "synth.write_s": statistics.median(s.write_s for s in self.setups),
            "trace.wall_s": statistics.median(walls),
            "trace.spans": len(tracer.run_spans(tracer.run)),
        }
        m["trace.overhead_s"] = m["trace.wall_s"] + m["cli.commands"] * self.startup - statistics.median(self.walls)
        return m


def unit(name: str) -> str:
    return _UNITS.get(name) or ("s" if name.endswith("_s") else "count")


_UNITS = {
    "det_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ledger_f1": "ratio",
    "ingest.bytes_in": "bytes",
    "ingest.parse_mb_per_s": "MB/s",
    "tracking.identified_ratio": "ratio",
    "tracking.dets_per_frame": "1/frame",
    "layout.svg_bytes": "bytes",
}


def summary(run: Run, result: dict) -> str:
    """Human-readable lines for stderr."""
    walls = sorted(run.walls)
    lines = [
        f"{run.workload} seed={run.seed} trace={int(run.trace)} runs={len(walls)} "
        f"failed={run.failed} fail_ratio={run.failed / len(walls):.3f} "
        f"work_units={run.inputs.work_units} frames/video={run.inputs.frames}",
        f"  workload runs (unscaled): min {walls[0]:.3f} s, median {statistics.median(walls):.3f} s, "
        f"max {walls[-1]:.3f} s",
    ]
    if run.probes:
        lines.append(f"  calibration probe: median {statistics.median(run.probes):.3f} s over {len(run.probes)}")
    for name, m in result["metrics"].items():
        lines.append(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if run.trace:
        mt = {k: v["value"] for k, v in result["metrics"].items()}
        total = mt["trace.wall_s"] + mt["cli.commands"] * mt["cli.startup_s"]
        shares = {
            "ingest.parse_stream_s+tracking.fuse_s": mt["ingest.parse_stream_s"] + mt["tracking.fuse_s"],
            "tracking.build_s+tracking.ledger_s": mt["tracking.build_s"] + mt["tracking.ledger_s"],
            "layout.gem_s+network.report_s": mt["layout.gem_s"] + mt["network.report_s"],
            "evaluation.*+startup": mt["evaluation.det_s"] + mt["evaluation.id_s"] + mt["cli.commands"] * mt["cli.startup_s"],
        }
        lines.append(f"  shares of traced wall + start-ups ({total:.3f} s):")
        lines += [f"    {k:40s} {v / total:.1%}" for k, v in shares.items()]
    lines += [f"  problem: {p}" for p in run.problems[:20]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = run.execute()
    print(summary(run, result), file=sys.stderr)
    print(json.dumps(result))
    return 0


_require_program()
import oracles  # noqa: E402  (troopnet must be importable first)
import traced  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
