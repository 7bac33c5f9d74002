"""specdec benchmark: one command, three workloads, end-to-end and per-layer.

Run from the root of a checkout::

    python3 specbench/run.py --workload ngram-long --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` replays one round untraced and one round traced and reports
the per-layer metrics. Both print a readable report, write it as JSON under
``.specbench_out/`` (with the spans of a traced run), and end with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(ROOT, ".specbench_out")
WORKLOADS = ("ngram-long", "copy-draft", "verify")
DEFAULT_SEED = 0

END_TO_END_UNITS = {
    "setup_s": "s",
    "tok_s": "tokens/s",
    "standard_tok_s": "tokens/s",
    "speedup": "x",
    "len_cost_ratio": "ratio",
    "tokens_per_call": "tokens/call",
    "verify_s": "s",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
}

LAYER_UNITS = {
    "models.target.calls": "count", "models.target.busy_s": "s", "models.target.us_per_seq": "us",
    "models.draft.calls": "count", "models.draft.busy_s": "s", "models.draft.us_per_call": "us",
    "models.draft.busy_share": "ratio",
    "distmath.standardize.calls": "count", "distmath.standardize.busy_s": "s",
    "distmath.residual.calls": "count", "distmath.residual.busy_s": "s",
    "distmath.inverse_cdf.calls": "count", "distmath.inverse_cdf.busy_s": "s",
    "engine.steps": "count",
    "engine.step_us_p50": "us", "engine.step_us_p99": "us", "engine.self_s": "s",
    "engine.step_us_first_tenth": "us", "engine.step_us_last_tenth": "us",
    "engine.tokens_per_step": "tokens/step", "engine.useful_draft_ratio": "ratio",
    "engine.correction.residual": "ratio", "engine.correction.extra": "ratio",
    "engine.correction.draft_fallback": "ratio", "engine.correction.target_argmax": "ratio",
    "rng.draws_per_step": "count", "rng.busy_s": "s",
    "analysis.alpha_hat": "ratio", "analysis.c_hat": "ratio",
    "analysis.predicted_speedup": "x", "analysis.speedup_gap": "ratio",
    "harness.exact.busy_s": "s",
    "tokenizers.encode_s": "s", "models.train_s": "s", "model_io.save_s": "s",
    "model_io.load_s": "s", "cli.overhead_s": "s", "trace.overhead_s": "s",
}

# Reported by the traced run and written to its report, but not part of the
# metric set every workload prints: only the verify workload runs these layers.
VERIFY_LAYER_UNITS = {
    "harness.equivalence.steps_s": "s", "harness.geometric.steps_s": "s",
    "harness.chi2.busy_s": "s", "beam.speculative.busy_s": "s", "beam.standard.busy_s": "s",
    "beam.target_batched_calls": "count", "beam.target_sequences": "count",
    "beam.accept_fraction": "ratio",
}


def _checkout_ok() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "specdec", "__init__.py"))


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs for a quick functional check (no digest check)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def _load_digests() -> dict:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def _rounds(fn, seconds: float) -> list[float]:
    """Call ``fn(round_index)`` at least once, and again while another round
    as long as the longest so far still ends within ``seconds``. Returns
    the rounds' wall times."""
    start = time.perf_counter()
    walls: list[float] = []
    while not walls or time.perf_counter() + max(walls) <= start + seconds:
        t0 = time.perf_counter()
        fn(len(walls))
        walls.append(time.perf_counter() - t0)
    return walls


def _medians(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows if k in r) for k in rows[0]}


def run_decode(w, args, workdir: str, ledger, expected: dict | None, meter):
    sizes = (w.SMOKE_SIZES if args.smoke else w.SIZES)[args.workload]
    make_requests = w.ngram_requests if args.workload == "ngram-long" else w.copy_requests

    def setup(sub, led, tracer=None):
        return w.setup_byte_models(args.workload, args.seed, sizes, sub, led, tracer)

    setups = w.Setups(setup, workdir, ledger, 1 if args.trace else w.SETUP_REPEATS,
                      args.seconds, meter)
    models = setups.models
    requests = make_requests(args.seed, models, sizes)
    # The exactness oracle's (target, draft) distribution pairs, cycled to
    # one pass's length. An untraced run times a pass after every request,
    # so its median covers the whole run and no single slow spell.
    pairs = w.oracle_pairs(models.target, models.draft, requests, sizes.oracle_contexts)
    oracle = list(itertools.islice(itertools.cycle(pairs), max(w.ORACLE_CALLS, len(pairs))))
    oracle_s: list[float] = []
    reference: dict = {}
    first: list = []  # the first round's outcomes, kept by a traced run only
    first_stats: dict = {}
    rows = []

    def oracle_pass():
        found = ledger.attempt("exactness oracle", meter.time, 1, w.exactness_oracle, oracle)
        if found is not None:
            worst, secs = found
            ledger.check(worst <= w.EXACT_TOL, f"exactness oracle error {worst:.3e}")
            oracle_s.append(secs)
        setups.checkpoint()

    def measured_round(idx):
        t0 = time.perf_counter()
        outcomes = w.decode_round(models.target, models.draft, requests, idx, meter, ledger,
                                  after_request=None if args.trace else oracle_pass)
        wall = time.perf_counter() - t0
        if idx == 0:
            # Only a summary outlives the round, so that peak memory does
            # not depend on how many rounds fit in the run.
            if args.trace:
                first.extend(outcomes)
            reference.update(w.round_digests(requests, outcomes))
            served = [o for _, o in w.served(requests, outcomes)]
            first_stats.update(
                calls=sum(o.spec.totals.target_calls for o in served),
                tokens=sum(o.spec.totals.tokens_emitted for o in served),
                alpha=w.trace_accept_rate(w.DecodeResult(
                    tokens=[], traces=[t for o in served for t in o.spec.traces])).alpha)
        w.check_round(requests, outcomes, reference, expected, ledger)
        rows.append(w.decode_round_metrics(requests, outcomes))
        return wall

    walls = []
    if args.trace:
        untraced_s = measured_round(0)
    else:
        walls = _rounds(measured_round, args.seconds)
    cli_overhead = w.cli_check(models, requests[0], ledger)

    if args.trace:
        tracer = w.Tracer()
        with w.installed(tracer):
            w.Setups(lambda sub, led: setup(sub, led, tracer), workdir, w.Ledger(), 1,
                     args.seconds, meter)
            target, draft = w.wrap(models, tracer)
            t0 = time.perf_counter()
            traced = w.decode_round(target, draft, requests, 0, meter, ledger, tracer)
            traced_s = time.perf_counter() - t0
            worst = w.exactness_oracle(oracle, tracer)
        ledger.check(worst <= w.EXACT_TOL, f"exactness oracle error {worst:.3e}")
        for req, a, b in zip(requests, first, traced):
            if a is not None and b is not None:
                ledger.check(a.spec.tokens == b.spec.tokens and a.std.tokens == b.std.tokens,
                             f"{req.name}: traced tokens differ from untraced")
        long_ids = {i for i, r in enumerate(requests) if r.long}
        metrics = w.layer_metrics(tracer, long_ids, set(range(len(requests))), rows[0]["speedup"])
        metrics["cli.overhead_s"] = cli_overhead
        metrics["trace.overhead_s"] = traced_s - untraced_s
        return metrics, {}, tracer, reference

    setup_s = setups.finish()
    metrics = _medians(rows)
    metrics.update(setup_s=statistics.median(setup_s),
                   tokens_per_call=first_stats["tokens"] / first_stats["calls"])
    if oracle_s:
        metrics["verify_s"] = statistics.median(oracle_s)
    report = {"requests": len(requests), "rounds": len(rows), "round_wall_s": walls,
              "setup_samples": len(setup_s),
              "oracle_calls": len(oracle), "oracle_passes": len(oracle_s),
              "alpha_hat": first_stats["alpha"], "cli_overhead_s": cli_overhead}
    return metrics, report, None, reference


def run_verify(w, args, workdir: str, ledger, expected: dict | None, meter):
    sizes = w.VERIFY_SMOKE_SIZES if args.smoke else w.VERIFY_SIZES

    def setup(sub, led, tracer=None):
        return w.setup_word_models(args.seed, sizes, sub, led, tracer)

    setups = w.Setups(setup, workdir, ledger, 1 if args.trace else w.SETUP_REPEATS,
                      args.seconds, meter)
    models = setups.models
    reference: dict = {}
    rounds = []

    def measured_round(idx):
        t0 = time.perf_counter()
        r = w.verify_round(models, args.seed, sizes, ledger, meter,
                           after_suite=None if args.trace else setups.checkpoint)
        wall = time.perf_counter() - t0
        got = w.verify_outputs_digest(r)
        if idx == 0:
            reference.update(got)
        ledger.check(got == reference and expected in (None, reference),
                     "verify outputs differ from the first round or the checked-in digest")
        rounds.append(r)
        return wall

    walls = []
    if args.trace:
        untraced_s = measured_round(0)
    else:
        walls = _rounds(measured_round, args.seconds)
    cli_req = w.Request("cli", (0,), w.SpecConfig(gamma=w.GAMMA, seed=args.seed), False)
    cli_overhead = w.cli_check(models, cli_req, ledger)

    if args.trace:
        tracer = w.Tracer()
        with w.installed(tracer) as stream_cls:
            w.Setups(lambda sub, led: setup(sub, led, tracer), workdir, w.Ledger(), 1,
                     args.seconds, meter)
            target, draft = w.wrap(models, tracer)
            traced_models = w.Models(target, draft, models.target_path, models.draft_spec, [])
            t0 = time.perf_counter()
            traced = w.verify_round(traced_models, args.seed, sizes, ledger, meter, tracer,
                                    stream_cls)
            traced_s = time.perf_counter() - t0
        ledger.check(w.verify_outputs_digest(traced) == reference,
                     "traced verify outputs differ from untraced")
        speedup = w.verify_round_metrics(rounds[0])["speedup"]
        metrics = w.layer_metrics(tracer, {0}, {0}, speedup)
        metrics.update(w.beam_metrics(traced.beam_stats))
        metrics["cli.overhead_s"] = cli_overhead
        metrics["trace.overhead_s"] = traced_s - untraced_s
        return metrics, {}, tracer, reference

    setup_s = setups.finish()
    first = rounds[0]
    metrics = _medians([w.verify_round_metrics(r) for r in rounds])
    metrics.update(setup_s=statistics.median(setup_s),
                   tokens_per_call=sum(c[0] for c in first.chunks) / first.loop_steps)
    report = {"rounds": len(rounds), "round_wall_s": walls, "setup_samples": len(setup_s),
              "suite_s": _medians([r.suite_s for r in rounds]),
              "equivalence_p": first.outputs.get("equivalence_p"), "cli_overhead_s": cli_overhead}
    return metrics, report, None, reference


def main(argv=None) -> int:
    args = parse_args(argv)
    if not _checkout_ok():
        print(f"error: no specdec sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads as w

    expected = None
    if not args.smoke:
        expected = _load_digests().get(args.workload, {}).get(str(args.seed))
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    ledger = w.Ledger()
    meter = w.SpeedMeter()
    runner = run_verify if args.workload == "verify" else run_decode
    try:
        found = ledger.attempt(f"{args.workload} run", runner, w, args, workdir, ledger,
                               expected, meter)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # A run that raised outside any single operation measured nothing; it is
    # still reported, as failed, with every metric at 0.
    metrics, report, tracer, reference = found or ({}, {}, None, {})

    if args.trace and metrics:
        ledger.check(metrics["rng.draws_per_step"] == w.DRAWS_PER_STEP,
                     f"{metrics['rng.draws_per_step']} variates per step, not 2*gamma+1")
    if args.trace:
        units = dict(LAYER_UNITS)
        if args.workload == "verify":
            units.update(VERIFY_LAYER_UNITS)
    else:
        units = END_TO_END_UNITS
        if metrics:
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["success_rate"] = 1.0 - len(ledger.failures) / ledger.attempted
    failed = len(ledger.failures)
    if tracer is not None:
        tracer.save(os.path.join(OUT_DIR, f"spans-{tag}.npz"))
        # The paper's Table 5 row, from wall clock: expected against empirical.
        exp = metrics["analysis.predicted_speedup"]
        report["table5"] = (f"gamma={w.GAMMA} alpha={metrics['analysis.alpha_hat']:.4f} "
                            f"c={metrics['analysis.c_hat']:.4f} exp={exp:.4f} "
                            f"emp={exp * metrics['analysis.speedup_gap']:.4f}")

    report["machine_speed"] = meter.speed if meter.samples else None
    report.update((k, v) for k, v in metrics.items() if k not in units)
    samples = {}
    if not args.trace and "rounds" in report:
        samples = dict.fromkeys(units, report["rounds"])
        samples.update(setup_s=report["setup_samples"], tokens_per_call=1, peak_rss_mb=1,
                       success_rate=ledger.attempted)
        if "oracle_passes" in report:
            samples["verify_s"] = report["oracle_passes"]
    print(f"# specbench {tag}: attempted={ledger.attempted} failed={failed} "
          f"error_rate={failed / ledger.attempted:.6g}")
    for key, value in report.items():
        print(f"# {key}: {value}")
    values = {k: metrics.get(k, 0.0) for k in units}
    for name in units:
        n = f"  n={samples[name]}" if name in samples else ""
        print(f"{name:<34} {values[name]:>16.6g} {units[name]}{n}")
    for reason in ledger.failures:
        print(f"FAILED: {reason}")
    # ``reference`` holds this seed's first-round token digests: the entry
    # digests.json would need for this seed.
    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "attempted": ledger.attempted, "failures": ledger.failures,
            "report": report, "metrics": values, "reference": reference}
    with open(os.path.join(OUT_DIR, f"report-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1, default=str)

    contract = LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in contract.items()},
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
