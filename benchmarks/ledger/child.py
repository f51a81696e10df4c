"""Run ONE ledger workload in this process and print its result as one JSON line.

``run.py`` starts this file in a fresh interpreter per workload (BLAS pinned
through the environment) so no workload inherits another's caches, allocator
state or peak RSS.  The end-to-end path below touches the system only through
top-level ``repro`` exports and the ``BQSched`` facade; the one thing it sets
on the facade is an instance attribute wrapping the public ``select_action``
to timestamp decisions.  Tracing (``--trace 1``) patches layer functions from
``spans.py`` and changes nothing else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

import measure
import spans
import specs


#: Driver-side spans whose inner spans all share one request id; inside
#: ``facade.serve`` / ``facade.schedule`` every decision opens its own.
_REQUEST_SPANS = ("facade.setup", "facade.prepare", "facade.train")


class DecisionClock:
    """Timestamps every entry of ``scheduler.select_action`` (one ``perf_counter`` per decision)."""

    def __init__(self, scheduler) -> None:
        self._inner = scheduler.select_action
        self.stamps: list[float] = []
        scheduler.select_action = self

    def __call__(self, env, snapshot):
        self.stamps.append(time.perf_counter())
        return self._inner(env, snapshot)

    def cycle_stamps(self, entry: float) -> list[tuple[float, float]]:
        """``(start, end)`` of each decision cycle of one round; the first starts at the round's entry."""
        stamps, self.stamps = self.stamps, []
        return list(zip([entry] + stamps, stamps))


class Checks:
    """Correctness checks; every failure is named in the output and fails the run."""

    def __init__(self) -> None:
        self.failed: list[str] = []
        self.count = 0

    def require(self, ok: bool, what: str) -> None:
        self.count += 1
        if not ok:
            self.failed.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)


def build_inputs(repro, spec: specs.WorkloadSpec, seed: int):
    """Generated inputs + facade.  The program never sees the workload's name."""
    workload = repro.make_workload(spec.benchmark, scale_factor=1.0, query_scale=spec.query_scale, seed=seed)
    if spec.fleet:
        engine = repro.Cluster.from_names(spec.fleet, seed=seed)
    else:
        engine = repro.DatabaseEngine(repro.DBMSProfile.dbms_x(), seed=seed)
    scheduler = repro.BQSched(workload, engine, repro.BQSchedConfig(seed=seed))
    return engine, scheduler


class Recording:
    """Raw observations of one workload: ``perf_counter`` stamps and the program's outputs."""

    def __init__(self) -> None:
        self.construct_at: list[tuple[float, float]] = []
        self.prepare_at = self.train_at = (0.0, 0.0)
        self.round_at: list[tuple[float, float]] = []
        self.decision_at: list[tuple[float, float]] = []
        self.losses: list[float] = []
        self.sim_s: list[float] = []
        self.completed: list[int] = []
        self.failed: list[int] = []
        self.shed: list[int] = []
        self.lost = 0
        self.submits_before = 0

    def durations(self, seconds_between, tail_q: float) -> dict:
        """Every duration-derived number under one clock (wall, or machine-normalised)."""

        def seconds(intervals):
            starts, ends = zip(*intervals)
            return seconds_between(starts, ends)

        walls, cycles, construct_s = seconds(self.round_at), seconds(self.decision_at), seconds(self.construct_at)
        prepare_s, train_s = (float(x) for x in seconds([self.prepare_at, self.train_at]))
        return {
            "construct_s": float(np.median(construct_s)),
            "prepare_s": prepare_s,
            "train_s": train_s,
            "time_to_policy_s": prepare_s + train_s,
            "schedule_round_ms_p50": float(np.median(walls)) * 1e3,
            "serve_queries_per_s": float(np.median(np.asarray(self.completed) / walls)),
            "decision_cycle_us_p50": measure.percentile(cycles, 50.0) * 1e6,
            "decision_cycle_us_p90": measure.percentile(cycles, 90.0) * 1e6,
            "decision_cycle_us_tail": measure.percentile(cycles, tail_q) * 1e6,
            "overhead_frac": float(np.median(walls / np.asarray(self.sim_s))),
            "timed_s": float(construct_s.sum() + prepare_s + train_s + walls.sum()),
        }


def drive(repro, spec: specs.WorkloadSpec, seed: int, rounds: int, tracer, checks: Checks, rec: Recording):
    """Set-up, time to policy and the decision loop: the timed region."""

    def timed(span_name: str, fn, *args, **kwargs):
        call = tracer.wrap(span_name, fn, request_root=span_name in _REQUEST_SPANS) if tracer else fn
        started = time.perf_counter()
        result = call(*args, **kwargs)
        return result, (started, time.perf_counter())

    # --- set-up: generated inputs, engine/fleet, facade (probes, plan embeddings, mask) ---
    for _ in range(specs.SETUP_REPEATS):
        (engine, scheduler), stamps = timed("facade.setup", build_inputs, repro, spec, seed)
        rec.construct_at.append(stamps)
    if tracer:
        tracer.patch_methods_of(spans.BACKEND_SPAN, scheduler.inference_backend, spans.BACKEND_METHODS)
    num_queries = len(scheduler.batch)

    # --- time to policy ---
    _, rec.prepare_at = timed("facade.prepare", scheduler.prepare, history_rounds=spec.history_rounds)
    history, rec.train_at = timed(
        "facade.train", scheduler.train, num_updates=spec.num_updates, pretrain_updates=spec.pretrain_updates
    )
    rec.losses = [*history.policy_losses, *history.value_losses, *history.aux_losses]
    checks.require(all(math.isfinite(x) for x in rec.losses), "train() history holds a non-finite loss")
    checks.require(len(history.policy_losses) == spec.num_updates, "train() history length != num_updates")

    # --- decision loop: serve() rounds, or greedy schedule() rounds ---
    round_base = 1_000 * (seed + 1)
    serve_kwargs = spec.serve(repro) if spec.serve else None
    clock = DecisionClock(scheduler)
    rec.submits_before = tracer.outermost_calls("dbms.submit") if tracer else 0
    for index in range(rounds):
        if serve_kwargs is not None:
            report, stamps = timed("facade.serve", scheduler.serve, round_id=round_base + index, **serve_kwargs)
            done, dead, refused, simulated = (
                report.total_completed, report.total_failed, report.total_shed, report.total_time
            )  # fmt: skip
            for tenant in report.tenants:
                # ``finished`` is keyed by query id, so completing twice shows as a short count here.
                rec.lost += abs(num_queries - tenant.num_queries - tenant.num_failed)
            checks.require(refused <= dead, f"round {index}: more shed than failed")
        else:
            result, stamps = timed("facade.schedule", scheduler.schedule, round_id=round_base + index)
            done, dead, refused, simulated = len(result.query_finish_times()), 0, 0, result.makespan
            rec.lost += abs(num_queries - done) + abs(result.num_queries - done)
        checks.require(math.isfinite(simulated) and simulated > 0, f"round {index}: simulated time {simulated!r}")
        rec.round_at.append(stamps)
        rec.sim_s.append(simulated)
        rec.completed.append(done)
        rec.failed.append(dead)
        rec.shed.append(refused)
        rec.decision_at.extend(clock.cycle_stamps(stamps[0]))
    tenants = serve_kwargs["num_tenants"] if serve_kwargs else 1
    return engine, scheduler, round_base, rounds * tenants * num_queries


def run_workload(repro, spec: specs.WorkloadSpec, seed: int, seconds: float, tracer: "spans.Tracer | None") -> dict:
    checks = Checks()
    rec = Recording()
    rounds = spec.scaled_rounds(seconds)
    machine_clock = measure.MachineClock()
    usage_before = resource.getrusage(resource.RUSAGE_SELF)
    machine_clock.start()
    try:
        engine, scheduler, round_base, arrived = drive(repro, spec, seed, rounds, tracer, checks, rec)
    finally:
        machine = machine_clock.stop()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    completed = sum(rec.completed)
    checks.require(rec.lost == 0, f"{rec.lost} queries unaccounted for (arrived != completed + failed + shed)")
    checks.require(completed + sum(rec.failed) == arrived, "round totals do not add up to the arrivals")
    if not rec.decision_at:
        raise RuntimeError("the select_action wrapper recorded zero calls: the facade no longer routes through it")

    # Durations twice: as the wall clock read them, and with the machine's
    # measured slowdown divided out (the reported metrics; see MachineTimeline).
    tail_q = measure.supported_tail(len(rec.decision_at), 99.0)
    wall = rec.durations(lambda starts, ends: np.asarray(ends) - np.asarray(starts), tail_q)
    normalised = rec.durations(machine.normalised_seconds, tail_q)
    layers = layer_metrics(tracer, wall["timed_s"], rec.submits_before, completed)
    if tracer:
        tracer.restore()  # the timed region is over: the FIFO comparison below runs untraced

    # --- policy quality: a check with a ceiling, never a gated metric ---
    makespan_vs_fifo = 0.0
    if spec.fifo_ceiling is not None:
        fifo_env = repro.SchedulingEnv(
            batch=scheduler.batch,
            backend=engine,
            scheduler_config=scheduler.config.scheduler,
            config_space=scheduler.config_space,
            knowledge=scheduler.knowledge,
            mask=scheduler.mask,
        )
        fifo = repro.FIFOScheduler().evaluate(fifo_env, rounds=rounds, base_round_id=round_base)
        makespan_vs_fifo = (sum(rec.sim_s) / rounds) / fifo.mean
        checks.require(
            makespan_vs_fifo <= spec.fifo_ceiling,
            f"policy makespan is {makespan_vs_fifo:.3f} x FIFO (ceiling {spec.fifo_ceiling})",
        )

    simulated_outputs = {
        "sim_s": [x.hex() for x in rec.sim_s],
        "completed": rec.completed,
        "failed": rec.failed,
        "shed": rec.shed,
        "losses": [float(x).hex() for x in rec.losses],
        "decisions": len(rec.decision_at),
    }
    timed_s = {"wall": wall.pop("timed_s"), "normalised": normalised.pop("timed_s")}
    metrics = {
        **normalised,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # KiB on Linux
        "ops_completed_share": completed / arrived,
    }
    if layers is not None:
        # Reported, never gated: on the serve workloads train() is one
        # validation round, too short to gate; the simulated seconds under
        # overhead_frac and the highest supported tail percentile move with
        # the seed by more than any bound.
        layers["phase.prepare_s"] = metrics["prepare_s"]
        layers["phase.train_s"] = metrics["train_s"]
        layers["loop.overhead_frac"] = metrics["overhead_frac"]
        layers["loop.decision_cycle_us_tail"] = metrics["decision_cycle_us_tail"]
        layers["policy.makespan_vs_fifo"] = makespan_vs_fifo
        layers["controlplane.shed"] = float(sum(rec.shed))
        layers["ops.failed_share"] = 1.0 - completed / arrived
        layers["checks.failed"] = float(len(checks.failed))
        layers["machine.ref_cell_s"] = machine.quiet_cell_s
        layers["machine.slow_share"] = machine.slow_share
        # Kernel time here is page zeroing for freshly mapped temporaries: a
        # measure of allocation churn that the wall clock hides in noise.
        layers["machine.user_cpu_s"] = usage.ru_utime - usage_before.ru_utime
        layers["machine.sys_cpu_s"] = usage.ru_stime - usage_before.ru_stime
        layers["machine.minor_faults"] = float(usage.ru_minflt - usage_before.ru_minflt)
    return {
        "metrics": metrics,
        "layers": layers,
        "attempted": arrived,
        "failed": rec.lost,
        "checks_run": checks.count,
        "checks_failed": checks.failed,
        "digest": hashlib.sha256(json.dumps(simulated_outputs, sort_keys=True).encode()).hexdigest(),
        "wall_metrics": wall,
        "timed_s": timed_s,
        "info": {
            "num_queries": len(scheduler.batch),
            "rounds": rounds,
            "tenants": arrived // (rounds * len(scheduler.batch)),
            "decisions": len(rec.decision_at),
            "tail_percentile": tail_q,
            "clusters": scheduler.clusters.num_clusters if scheduler.clusters is not None else 0,
            "inference_backend": type(scheduler.inference_backend).__name__,
            "makespan_vs_fifo": makespan_vs_fifo,
            "mean_simulated_s": sum(rec.sim_s) / rounds,
            "total_shed": sum(rec.shed),
            "total_failed": sum(rec.failed),
            "ref_cell_s": machine.quiet_cell_s,
            "slow_share": machine.slow_share,
            "noisy": machine.noisy,
        },
    }


def layer_metrics(tracer: "spans.Tracer | None", timed_wall: float, submits_before: int, completed: int):
    """Per-layer numbers of the timed region (taken before the FIFO comparison runs)."""
    if tracer is None:
        return None
    layers: dict[str, float] = {}
    covered = 0.0
    for name in spans.SPAN_NAMES:
        layers[f"{name}.calls"] = float(tracer.calls(name))
        layers[f"{name}.self_s"] = tracer.self_seconds(name)
        if name not in spans.FACADE_SPANS:
            covered += tracer.self_seconds(name)
    submits = tracer.outermost_calls("dbms.submit") - submits_before
    cells = tracer.counts.get("masking.mask_cells", 0.0)
    layers["rollout.transitions"] = tracer.counts.get("rollout.transitions", 0.0)
    layers["runtime.events"] = tracer.counts.get("runtime.events", 0.0)
    layers["runtime.useful_attempt_ratio"] = completed / submits if submits else 0.0
    layers["masking.masked_fraction"] = tracer.counts.get("masking.masked_cells", 0.0) / cells if cells else 0.0
    layers["trace.coverage"] = covered / timed_wall
    layers["trace.missing_targets"] = float(len(tracer.missing))
    return layers


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(specs.BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=specs.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--spawned-at", type=float, default=None, help="time.time() when the parent started us")
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()

    import repro  # a missing package or facade name must fail loudly, so no guard here

    import_s = time.time() - spawned_at
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    try:
        result = run_workload(repro, specs.BY_NAME[args.workload], args.seed, args.seconds, tracer)
    finally:
        if tracer:
            tracer.restore()
    for metrics in (result["metrics"], result["wall_metrics"]):
        metrics["setup_s"] = import_s + metrics.pop("construct_s")
    result["info"]["import_s"] = import_s
    if tracer and args.trace_out is not None:
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        document = {"workload": args.workload, "seed": args.seed, "layers": result["layers"], **tracer.document()}
        args.trace_out.write_text(json.dumps(document))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
