"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload zipf-corpus --seed 3 --seconds 32 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The run generates its inputs from the seed, measures them in a fresh
process (measure.py), checks the outputs (gate.py) and prints, as its last
line, ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the ``end_to_end`` entries of BENCHMARK.json, with
``--trace 1`` the ``per_layer`` ones.  A wrong output or any failed claim
makes ``correct`` false and the exit code 1.

    python3 perfbench/run.py --record-references

re-records reference_digests.json from the program as it is; do that only
in a change that is meant to alter the artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def measure(workload: str, inputs: Path, work: Path, variant: int, seconds: float, trace: int,
            deadline: float, reference_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload, "--inputs", str(inputs),
           "--work", str(work), "--variant", str(variant), "--seconds", str(seconds), "--trace", str(trace)]
    if reference_only:
        cmd.append("--reference-only")
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def run_once(args, deadline: float) -> int:
    import gate
    import workloads

    variant = args.seed % workloads.VARIANTS
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        description = workloads.generate_inputs(args.workload, work / "inputs", variant)
        result = measure(args.workload, work / "inputs", work / "run", variant, args.seconds,
                         args.trace, deadline)
        problems = gate.check_digests(args.workload, variant, work / "run" / "reference")
        if args.workload in workloads.LOCAL_CORPORA:
            from veriscope import PipelineConfig

            layout = description["layout"]
            corpora = {
                s: work / "inputs" / f"corpus_{s}.jsonl" for s in workloads.LOCAL_CORPORA[args.workload]
            }
            problems += gate.check_bm25(
                {s: work / "run" / "setup" / f"index-{s}" for s in corpora},
                corpora,
                gate.oracle_queries(work / "inputs" / layout["verify"], variant),
                PipelineConfig().retrieval_depth,
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    problems += result.get("problems", [])
    if result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} claims failed")
    if result["absent"]:
        print(f"perfbench: absent layers (reported as 0): {', '.join(result['absent'])}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: INCORRECT: {problem}", file=sys.stderr)

    measured = result["layers"] if args.trace else result
    metrics = {}
    for entry in metric_specs()["per_layer" if args.trace else "end_to_end"]:
        if entry["name"] not in measured:
            return fail(f"metric {entry['name']} was not measured", 1)
        metrics[entry["name"]] = {"value": measured[entry["name"]], "unit": entry["unit"]}
    info = {k: v for k, v in description.items() if k != "layout"}
    info.update({k: v for k, v in result.items() if k not in ("layers", "problems") and k not in metrics})
    print(json.dumps({"workload_info": info}, sort_keys=True))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


def record_references(deadline_per_run: float = 600.0) -> int:
    import gate
    import workloads

    table = {}
    for name in workloads.WORKLOADS:
        table[name] = {}
        for variant in range(workloads.VARIANTS):
            work = ROOT / ".bench_work" / f"record-{name}-{variant}"
            shutil.rmtree(work, ignore_errors=True)
            try:
                workloads.generate_inputs(name, work / "inputs", variant)
                result = measure(name, work / "inputs", work / "run", variant, 0, 0,
                                 time.monotonic() + deadline_per_run, reference_only=True)
                if result["failed"]:
                    return fail(f"{name} variant {variant}: {result['failed']} reference claims failed", 1)
                table[name][str(variant)] = gate.artifact_digests(work / "run" / "reference")
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"recorded {name} variant {variant}", file=sys.stderr)
    gate.REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    parser = argparse.ArgumentParser(description="veriscope benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "veriscope" / "__init__.py").is_file():
        return fail(f"no program source at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    if args.record_references:
        return record_references()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    try:
        return run_once(args, deadline)
    except subprocess.TimeoutExpired:
        return fail("run exceeded its time limit", 1)
    except RuntimeError as exc:
        return fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
