"""The measuring process: set-up, reference batch and timed phases.

run.py starts this file as a fresh process per run, so ``peak_rss_mb`` is
the footprint of one workload and nothing the generator or the
correctness gate allocated.  It prints one JSON object on its last line.

Phases, in order:

1. set-up, timed ``setup_repeats`` times here and as many times again after
   every evaluate slice of step 3 (the median of all is ``setup_s``);
2. the reference batch: one run_experiment over the first claims, traced
   and untimed; its artifacts are what the correctness gate digests, and
   its spans give ``provider_calls_per_claim``;
3. with ``--trace 0``: SLICES rounds of the evaluate phase (run_experiment
   batches into fresh directories, ``max_workers`` = usable CPUs) and the
   verify phase (a single-client closed loop of verify_claim);
   with ``--trace 1``: index build/save/load timings, an untraced and a
   traced evaluate phase of equal length, a traced verify loop, and
   micro-timings.

The process runs on one CPU (``pin_to_one_cpu``).  Every timing of the
end-to-end metrics is service time (``ServiceClock``), not wall-clock time;
the wall-clock figures are reported alongside, in the run's
``workload_info``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import tracing
import workloads

#: Rounds of evaluate + verify in a --trace 0 run.
SLICES = 4
#: Share of --seconds spent in the evaluate phase; the verify phase gets the rest.
EVALUATE_SHARE = 0.4


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def pin_to_one_cpu() -> None:
    """Run this process, and the threads it starts, on one of its CPUs.

    The interpreter lock lets one thread run at a time anyway.  Handing it,
    and the per-claim thread pools' work, from one CPU to another costs CPU
    time that grows and varies with the host's load; on one CPU that cost
    stays small and steady.  max_workers is counted before pinning, so it
    is still the number of usable CPUs.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def batch_failures(out_dir: Path, expected: int) -> int:
    """Claims of a finished batch that errored at a source or abstained."""
    from veriscope.experiment import TRACES_DIR

    traces = sorted((out_dir / TRACES_DIR).glob("*.json"))
    failed = max(0, expected - len(traces))
    for path in traces:
        data = json.loads(path.read_text(encoding="utf-8"))
        if data["source_errors"] or any(v["abstained"] for v in data["verdicts"].values()):
            failed += 1
    return failed


def result_failed(result) -> bool:
    return bool(result.source_errors) or any(v.abstained for v in result.verdicts.values())


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


#: CPU seconds of one reference_work() call at the reference speed: the usual
#: speed of the 2-vCPU Intel Xeon VM the benchmark was defined on.
REFERENCE_CPU_S = 0.00031

_REFERENCE_VECTORS = [np.arange(64, dtype=float) * (i + 1) for i in range(40)]
_REFERENCE_TEXT = "The claim that aspirin reduces the risk of heart attack is supported by evidence. " * 4
_REFERENCE_WORD = re.compile(r"\w+")


def reference_work() -> float:
    """A fixed slice of work of the program's kind.

    Small numpy vector products, a regex tokenization, counting in a dict,
    JSON encoding and hashing: on this host, the cost of this mix followed
    the cost of a claim more closely than pure dict and str work did.
    """
    total = 0.0
    for vector in _REFERENCE_VECTORS:
        total += float(np.dot(vector, vector)) / (float(np.linalg.norm(vector)) + 1.0)
    counts: dict[str, int] = {}
    for token in _REFERENCE_WORD.findall(_REFERENCE_TEXT.lower()):
        counts[token] = counts.get(token, 0) + 1
    hashlib.blake2b(json.dumps(counts, sort_keys=True).encode("utf-8")).digest()
    return total


@dataclass(frozen=True)
class Timing:
    """One timed operation: its start and its CPU, network and wall-clock seconds."""

    at: float
    cpu: float
    net: float
    wall: float


class ServiceClock:
    """Times operations in service time: CPU time at the reference speed plus network time.

    Wall-clock time on a shared VM also holds the time the host runs other
    guests on this VM's CPUs (steal); that moved the wall-clock timings of
    CPU-bound runs by up to half from one run to the next.  The process's
    CPU time (all its threads, ended ones too) leaves steal out, but the
    CPU itself changes speed, by up to 2x every second or two, as the
    host's other guests come and go.  So before every operation the
    clock times reference_work(), and an operation's CPU time is scaled by
    REFERENCE_CPU_S over the median cost of the reference in the WINDOW
    samples around it.  To that it adds the time with a fake-network
    request in flight, the union of the round trips, so calls made in
    parallel cost less than the same calls made one after another.  Time
    in which the program neither runs nor has a request in flight, such as
    a sleep, is not service time.
    """

    #: Reference samples whose median sets the speed around an operation.
    WINDOW = 5

    def __init__(self, session=None):
        self.session = session
        self.sampled_at: list[float] = []
        self.costs: list[float] = []

    def start(self) -> tuple[float, float]:
        cpu = time.process_time()
        reference_work()
        self.costs.append(time.process_time() - cpu)
        self.sampled_at.append(time.perf_counter())
        if self.session is not None:
            self.session.take_round_trips()
        return time.perf_counter(), time.process_time()

    def stop(self, started: tuple[float, float]) -> Timing:
        cpu = time.process_time() - started[1]
        wall = time.perf_counter() - started[0]
        net = covered(self.session.take_round_trips()) if self.session is not None else 0.0
        return Timing(started[0], cpu, net, wall)

    def service(self, timing: Timing) -> float:
        """Service seconds of a timed operation; call it once the run's timings are all taken."""
        last = bisect.bisect_right(self.sampled_at, timing.at) - 1
        lo = max(0, min(last - self.WINDOW // 2, len(self.costs) - self.WINDOW))
        cost = statistics.median(self.costs[lo:lo + self.WINDOW])
        return timing.cpu * REFERENCE_CPU_S / cost + timing.net


class Runner:
    def __init__(self, prep: workloads.Prepared, work: Path, workers: int, clock: ServiceClock):
        self.prep = prep
        self.work = work
        self.workers = workers
        self.batches = 0
        self.verified = 0
        self.clock = clock

    def plan(self, claims_file: Path):
        from veriscope import CANONICAL_SOURCES, DatasetDescriptor, ExperimentPlan

        return ExperimentPlan(
            dataset=DatasetDescriptor(name=self.prep.dataset, scheme=self.prep.scheme, path=claims_file),
            sources=tuple(CANONICAL_SOURCES),
            condition=self.prep.condition,
            cfg=self.prep.cfg,
        )

    def batch(self, claims_file: Path, out_dir: Path, tracer=None):
        """One run_experiment call; returns (timing, claims, failed)."""
        from veriscope import run_experiment

        plan = self.plan(claims_file)
        expected = sum(1 for line in claims_file.read_text(encoding="utf-8").splitlines() if line.strip())
        started = self.clock.start()
        try:
            if tracer is None:
                run_experiment(plan, self.prep.providers, out_dir, max_workers=self.workers)
            else:
                with tracer.span("experiment.run_experiment"):
                    run_experiment(plan, self.prep.providers, out_dir, max_workers=self.workers)
        except Exception as exc:  # a crashing batch fails its claims; the run goes on to report it
            print(f"batch {claims_file.name} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return self.clock.stop(started), expected, expected
        return self.clock.stop(started), expected, batch_failures(out_dir, expected)

    def evaluate(self, seconds: float, tracer=None) -> dict:
        """Batches into fresh directories until ``seconds`` of run_experiment time.

        ``batches`` holds each batch's (timing, claims).
        """
        busy, claims, failed, trace_bytes, batches = 0.0, 0, 0, 0, []
        files = self.prep.evaluate
        while True:
            out_dir = self.work / f"evaluate-{self.batches:05d}"
            timing, n, bad = self.batch(files[self.batches % len(files)], out_dir, tracer)
            self.batches += 1
            busy += timing.wall
            batches.append((timing, n))
            claims += n
            failed += bad
            trace_bytes += sum(p.stat().st_size for p in (out_dir / "traces").glob("*.json"))
            shutil.rmtree(out_dir, ignore_errors=True)
            if busy >= seconds:
                break
        return {"seconds": busy, "claims": claims, "failed": failed, "trace_bytes": trace_bytes,
                "batches": batches}

    def verify(self, seconds: float, min_samples: int, tracer=None) -> dict:
        """Single-client closed loop; at least ``min_samples`` claims.

        ``timings`` holds one Timing per claim.
        """
        from veriscope import verify_claim

        prep = self.prep
        timings, failed = [], 0
        cap = 4 * seconds + 10
        started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - started
            if elapsed >= seconds and len(timings) >= min_samples or elapsed >= cap:
                break
            claim = prep.verify[self.verified % len(prep.verify)]
            self.verified += 1
            span = tracer.span("pipeline.verify_claim", claim.id) if tracer else contextlib.nullcontext()
            timed = self.clock.start()
            try:
                with span:
                    result = verify_claim(claim, prep.providers, prep.scheme, prep.template,
                                          cfg=prep.cfg, condition=prep.condition)
                bad = result_failed(result)
            except Exception as exc:  # counted as a failed claim
                print(f"verify {claim.id} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                bad = True
            timings.append(self.clock.stop(timed))
            failed += bad
        return {"timings": timings, "failed": failed}


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def time_setup(setup: workloads.Setup, repeats: int, clock: ServiceClock, timings: list):
    """Build the provider set ``repeats`` times, appending the Timing of each."""
    providers = None
    for _ in range(repeats):
        started = clock.start()
        providers = setup.build()
        timings.append(clock.stop(started))
    return providers


def index_layer(prep: workloads.Prepared, scratch: Path, repeats: int = 3) -> dict:
    """Build, save and load of the workload's corpora, each timed alone."""
    from veriscope import LocalIndex, build_local_index

    build, save, load, disk = [], [], [], 0
    for rep in range(repeats):
        b = s = l = 0.0
        disk = 0
        for name, corpus in prep.corpora.items():
            target = scratch / f"layer-index-{name}"
            shutil.rmtree(target, ignore_errors=True)
            t0 = time.perf_counter()
            index = build_local_index(corpus)
            t1 = time.perf_counter()
            index.save(target)
            t2 = time.perf_counter()
            LocalIndex.load(target)
            t3 = time.perf_counter()
            b, s, l = b + t1 - t0, s + t2 - t1, l + t3 - t2
            disk += sum(p.stat().st_size for p in target.iterdir())
        build.append(b)
        save.append(s)
        load.append(l)
    return {
        "index.build_s": statistics.median(build),
        "index.save_s": statistics.median(save),
        "index.load_s": statistics.median(load),
        "index.disk_mb": disk / 1e6,
    }


def micro_timings(prep: workloads.Prepared) -> dict:
    """Microseconds per sentence for normalize_sentence and tokenize."""
    from veriscope import normalize_sentence, split_sentences, tokenize

    sentences = []
    for corpus in prep.corpora.values():
        for line in Path(corpus).read_text(encoding="utf-8").splitlines():
            if line.strip():
                sentences.extend(split_sentences(json.loads(line)["body"]))
    sentences += [c.text for c in prep.verify[:200]]
    results = {}
    for name, fn in (("types.normalize_us", normalize_sentence), ("bm25.tokenize_us", tokenize)):
        reps = []
        for _ in range(7):
            count, started = 0, time.perf_counter()
            while count == 0 or time.perf_counter() - started < 0.03:
                for sentence in sentences:
                    fn(sentence)
                count += len(sentences)
            reps.append(1e6 * (time.perf_counter() - started) / count)
        results[name] = statistics.median(reps)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--variant", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference-only", action="store_true")
    args = parser.parse_args(argv)

    spec = workloads.WORKLOADS[args.workload]
    workers = usable_cpus()
    pin_to_one_cpu()
    work = args.work
    work.mkdir(parents=True, exist_ok=True)
    setup = workloads.Setup(args.workload, args.inputs, work / "setup", args.variant)
    clock = ServiceClock(setup.session)
    setup_timings: list[Timing] = []
    providers = time_setup(setup, 1 if args.reference_only else spec.setup_repeats, clock, setup_timings)
    prep = setup.prepare(providers)
    runner = Runner(prep, work, workers, clock)

    out = {"workers": runner.workers}
    tracer = tracing.Tracer()
    sent_before = dict(prep.session.counts) if prep.session else None
    with tracer.installed():
        _, ref_claims, ref_failed = runner.batch(prep.reference, work / "reference", tracer)
    if prep.session is not None:
        calls = sum(prep.session.counts[k] - sent_before[k] for k in sent_before)
        out["fake_misses"] = prep.session.misses
    else:
        calls = tracing.provider_calls(tracer.spans)
    out.update(
        reference_claims=ref_claims,
        reference_failed=ref_failed,
        provider_calls_per_claim=calls / max(ref_claims, 1),
        absent=tracer.absent,
    )
    attempted, failed = ref_claims, ref_failed

    if args.reference_only:
        pass  # the recorder needs only the reference batch
    elif args.trace == 0:
        # The two timed phases alternate in SLICES rounds, with a block of
        # set-ups between them, so that every metric averages over the whole
        # run rather than over one stretch of a host whose speed drifts by
        # tens of percent from one minute to the next.
        batches, verified, eval_claims, eval_failed, verify_failed = [], [], 0, 0, 0
        for round_ in range(SLICES):
            evaluate = runner.evaluate(args.seconds * EVALUATE_SHARE / SLICES)
            time_setup(setup, spec.setup_repeats, clock, setup_timings)
            last = round_ == SLICES - 1
            verify = runner.verify(args.seconds * (1 - EVALUATE_SHARE) / SLICES,
                                   spec.min_verify_samples - len(verified) if last else 0)
            batches += evaluate["batches"]
            verified += verify["timings"]
            eval_claims += evaluate["claims"]
            eval_failed += evaluate["failed"]
            verify_failed += verify["failed"]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        latencies = [clock.service(t) for t in verified]
        wall_latencies = [t.wall for t in verified]
        out.update(
            claims_per_service_s=statistics.median(n / clock.service(t) for t, n in batches),
            claim_service_p50_ms=1000 * statistics.median(latencies),
            claim_service_tail_ms=1000 * percentile(latencies, spec.tail_percentile),
            setup_s=statistics.median(clock.service(t) for t in setup_timings),
            setup_runs=len(setup_timings),
            wall_claims_per_s=statistics.median(n / t.wall for t, n in batches),
            wall_claim_p50_ms=1000 * statistics.median(wall_latencies),
            wall_claim_tail_ms=1000 * percentile(wall_latencies, spec.tail_percentile),
            wall_setup_s=statistics.median(t.wall for t in setup_timings),
            reference_ms=[round(1000 * q, 4) for q in statistics.quantiles(clock.costs, n=4)],
            peak_rss_mb=peak_rss_mb,
            evaluate_claims=eval_claims,
            verify_claims=len(verified),
        )
        attempted += eval_claims + len(verified)
        failed += eval_failed + verify_failed
    else:
        # Per-claim layer numbers come from a traced single-client loop, where
        # one claim's spans do not wait on another claim's; the evaluate
        # phase is traced separately for run_experiment's own time and for
        # the tracing overhead.
        layers = index_layer(prep, work)
        untraced = runner.evaluate(args.seconds / 4)
        evaluate_tracer = tracing.Tracer()
        with evaluate_tracer.installed():
            traced = runner.evaluate(args.seconds / 4, evaluate_tracer)
        verify_tracer = tracing.Tracer()
        with verify_tracer.installed():
            loop = runner.verify(args.seconds / 2, 1, verify_tracer)
        per_claim, problems = tracing.layer_metrics(verify_tracer.spans, len(loop["timings"]))
        per_batch, batch_problems = tracing.layer_metrics(evaluate_tracer.spans, traced["claims"])
        layers.update(per_claim)
        for name in ("experiment.artifacts_ms", "analysis.metrics_ms"):
            layers[name] = per_batch[name]
        layers.update(micro_timings(prep))
        untraced_rate = statistics.median(n / clock.service(t) for t, n in untraced["batches"])
        traced_rate = statistics.median(n / clock.service(t) for t, n in traced["batches"])
        layers.update({
            "experiment.trace_bytes": traced["trace_bytes"] / max(traced["claims"], 1),
            "trace.claims_per_service_s_untraced": untraced_rate,
            "trace.claims_per_service_s_traced": traced_rate,
            "trace.overhead_pct": 100.0 * (untraced_rate / traced_rate - 1.0),
        })
        absent = tracer.absent + evaluate_tracer.absent + verify_tracer.absent
        out.update(layers=layers, problems=problems + batch_problems, absent=sorted(set(absent)))
        attempted += untraced["claims"] + traced["claims"] + len(loop["timings"])
        failed += untraced["failed"] + traced["failed"] + loop["failed"]

    out.update(attempted=attempted, failed=failed)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
