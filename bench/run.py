"""qutritcr benchmark: two workloads, end-to-end metrics, optional layer trace.

    python3 bench/run.py --workload {pipeline,scan} --seed N --seconds S --trace {0,1}

Run it from anywhere inside a source checkout; it imports the package from
the checkout's ``src/`` (nothing is installed) and exits non-zero when that
source is missing.  Every workload is one process, closed loop, one program
call at a time.

Workloads
---------
pipeline  The paper's pipeline: ``cmd_calibrate`` into a store path that did
          not exist, ``CalibrationStore.load``, then ``cmd_bell`` with
          ``full``, ``rwa`` and ``store``.  The nine RWA tune-ups take about
          100 s of a 123 s cold calibration on 2 CPUs, which with the Bell
          runs and the oracle does not fit a run, so seven are replayed from
          ``tuneup.json`` (recorded by ``record_tuneup.py``); ``x01_pi_2``
          (DRAG tune-up) and ``cr01_pi`` (CR tune-up) run live.  Everything
          after the tune-ups -- the non-RWA re-derivation of every gate, the
          composite, the store, the Bell runs -- is the program's own.  The
          seed is the config seed (shots and bootstrap).  One pass per run.
scan      ``cmd_rabi`` for subspaces 01 and 12, all three control states, 128
          points up to 600 ns, at 8 CR amplitudes drawn from [0.2, 0.5] GHz,
          one per eighth of the range.  Each sweep draws fresh amplitudes,
          so only reuse inside a sweep can pay.  One untimed ``cmd_rabi``
          call warms the process up; then the run sweeps until ``seconds``
          have passed, at least 3 sweeps.  It never reaches the
          phase-correction optimizer or DOP853.

End-to-end metrics (``--trace 0``)
----------------------------------
setup_s        median over 5 child processes of start -> program imported,
               config built, fresh output directory made
wall_s         pipeline: calibrate + store load + the three Bell runs;
               scan: median seconds per sweep over the run's sweeps
peak_rss_mb    ru_maxrss at the end of the timed calls
oracle_err_max pipeline: max |U_stored - U_oracle| over single-pulse gates,
               the oracle re-propagating schedule + pre/post phases with
               DOP853 at rel 1e-11 / abs 1e-13; scan: max |p_csv - p_oracle|
               over the first sweep, the oracle integrating the pulse edges
               with the same DOP853 and the plateau exactly

``--trace 1`` runs the same workload with ``tracer.Tracer`` installed and
prints the per-layer metrics instead; a layer the workload does not reach
reads 0.  Tracing overhead is ``trace.timed_s`` minus an untraced ``wall_s``.
Oracles and output checks always run after the timed calls, untraced.  A
failed check counts in ``failed`` and makes ``correct`` false.  Gate oracle
propagators are cached in ``.bench_out/oracle/``, keyed by the program source
and the schedule.  Results, the environment and the trace spans go to
``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One process; BLAS gets one thread (the matrices are 9x9), never more than nproc.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

WORKLOADS = ("pipeline", "scan")
SETUP_PROBES = 5
LIVE_TUNEUPS = ("x01_pi_2", "cr01_pi")
BELL_METHODS = ("full", "rwa", "store")
BELL_MIN = 0.95
BELL_SCHEDULE_NS = 609
SCAN_AMPS = 8
SCAN_AMP_RANGE = (0.2, 0.5)
SCAN_POINTS = 128
SCAN_T_MAX_NS = 600.0
SCAN_MIN_SWEEPS = 3
POP_SUM_TOL = 1e-9
ORACLE_REL_TOL, ORACLE_ABS_TOL = 1e-11, 1e-13

# Layers each workload must exercise, and those it must never reach.  A
# refactor that moves a binding site shows up here instead of as a silent 0.
EXPECTED_NONZERO = {
    "pipeline": (
        "calibrate.s", "calibrate.phase_opt.calls", "calibrate.phase_opt.nfev",
        "calibrate.single.calls", "calibrate.cr.calls", "calibrate.refine.calls",
        "calibrate.compose.s", "calibrate.store_save_s", "calibrate.store_load_s",
        "propagate.calls", "propagate.nfev", "hamiltonian.evals", "hamiltonian.builds",
        "crpulse.pulses", "crpulse.magnus.calls", "fitting.calls",
        "experiments.bell_full_s", "experiments.bell_rwa_s", "experiments.bell_store_s",
        "metrics.concurrence.calls",
    ),
    "scan": (
        "hamiltonian.evals", "hamiltonian.builds", "crpulse.pulses", "crpulse.magnus.calls",
        "fitting.calls", "experiments.rabi.calls", "experiments.write_s", "experiments.csv_bytes",
    ),
}
EXPECTED_ZERO = {
    "pipeline": (),
    "scan": (
        "calibrate.phase_opt.calls", "calibrate.phase_opt.nfev", "calibrate.phase_opt.s",
        "propagate.calls", "propagate.nfev", "propagate.s",
    ),
}


def import_program():
    """Import qutritcr from this checkout's src/, never from elsewhere."""
    if not (SRC / "qutritcr" / "__init__.py").is_file():
        sys.exit(f"bench: program source {SRC / 'qutritcr'} not found")
    sys.path.insert(0, str(SRC))
    import qutritcr

    if Path(qutritcr.__file__).resolve().parent != (SRC / "qutritcr").resolve():
        sys.exit(f"bench: imported qutritcr from {qutritcr.__file__}, not from {SRC}")
    return qutritcr


def setup_probe(seed: int) -> None:
    """What a run does before its first timed call; timed from the parent."""
    import_program()
    from qutritcr import experiments  # noqa: F401  (loads every layer module)

    experiments.ExperimentConfig(seed=seed).fingerprint()
    d = OUT / "probe" / str(os.getpid())
    d.mkdir(parents=True, exist_ok=True)
    d.rmdir()


def measure_setup(seed: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--seed", str(seed)],
            check=True,
            timeout=120,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qutritcr").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Checks:
    """Counts attempted and failed operations and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def ran(self, calls: int) -> None:
        """Program calls that returned; one that raises ends the run."""
        self.attempted += calls

    def ok(self, what: str, passed: bool) -> bool:
        self.attempted += 1
        if not passed:
            self.failures.append(what)
            print(f"bench: check failed: {what}", file=sys.stderr)
        return passed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# pipeline


def replay_tuneups(patches, experiments) -> None:
    """Serve the recorded RWA tune-ups; the LIVE_TUNEUPS still run."""
    import numpy as np
    from qutritcr.calibrate import CalibratedGate
    from qutritcr.pulses import DragGaussian, GaussianSquare, Play, Schedule

    records = {r["name"]: r for r in json.loads((HERE / "tuneup.json").read_text())["gates"]}
    shapes = {"DragGaussian": DragGaussian, "GaussianSquare": GaussianSquare}

    def served(kind, real):
        def tune(p, *args, name=None, **kwargs):
            if name in LIVE_TUNEUPS:
                return real(p, *args, name=name, **kwargs)
            rec = records.get(name)
            if rec is None or rec["kind"] != kind or list(args) != rec["args"] or kwargs:
                raise RuntimeError(f"no recorded {kind} tune-up matches {name}{args}; rerun bench/record_tuneup.py")
            play = rec["play"]
            shape = shapes[play["shape"]](**play["fields"])
            sched = Schedule((Play(play["channel"], play["start"], shape, play["carrier_freq"], play["carrier_phase"]),))
            unitary = np.array(rec["unitary_re"]) + 1j * np.array(rec["unitary_im"])
            return CalibratedGate(
                name, sched, np.array(rec["pre_phases"]), np.array(rec["post_phases"]),
                unitary, rec["fidelity"], rec["leakage"],
            )

        return tune

    patches.set(experiments, "calibrate_single_qutrit", served("single", experiments.calibrate_single_qutrit))
    patches.set(experiments, "calibrate_cr_gate", served("cr", experiments.calibrate_cr_gate))


def run_pipeline(args, run_dir: Path, checks: Checks, patches, stop_trace) -> tuple[dict, dict, dict]:
    from qutritcr import calibrate, experiments

    replay_tuneups(patches, experiments)
    cfg = experiments.ExperimentConfig(seed=args.seed)
    store_path = run_dir / "cal.json"
    cold = not store_path.exists()

    t0 = time.perf_counter()
    calibrated = experiments.cmd_calibrate(cfg, str(store_path), verbose=False)
    calibrate_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    store = calibrate.CalibrationStore.load(str(store_path), cfg.fingerprint())
    load_s = time.perf_counter() - t0
    bells, bell_s = {}, {}
    for method in BELL_METHODS:
        t0 = time.perf_counter()
        bells[method] = experiments.cmd_bell(cfg, store, str(run_dir / f"bell_{method}"), method)
        bell_s[method] = time.perf_counter() - t0
    wall_s = calibrate_s + load_s + sum(bell_s.values())
    rss = peak_rss_mb()
    stop_trace()
    checks.ran(2 + len(BELL_METHODS))

    # cold-run guard: a fingerprint-matched store at the path would be reused
    checks.ok("calibrate wrote a new store inside the timed call", cold and store_path.is_file())
    store_bytes = store_path.stat().st_size if store_path.is_file() else 0
    gate_set = experiments.GATE_SET
    checks.ok("store reload returned a store", store is not None)
    gates = store.gates if store is not None else {}
    for name in gate_set:
        if checks.ok(f"{name} present after reload", name in gates and name in calibrated.gates):
            diff = float(abs(gates[name].unitary - calibrated.gates[name].unitary).max())
            checks.ok(f"{name} reloads to the saved unitary", diff <= 1e-12)
    for method in BELL_METHODS:
        checks.ok(f"bell {method} wrote its result", (run_dir / f"bell_{method}" / "bell_result.json").is_file())
    full = bells["full"]
    fid, conc = full.metrics[0].value, full.metrics[2].value
    checks.ok("bell full fidelity >= 0.95", fid >= BELL_MIN)
    checks.ok("bell full concurrence >= 0.95", conc >= BELL_MIN)
    checks.ok("bell schedule is 609 ns", round(full.duration_ns) == BELL_SCHEDULE_NS)

    errors, src = {}, source_hash()
    for name in gate_set:
        if name in gates:
            try:
                errors[name] = gate_oracle_error(cfg.device, gates[name], src)
            except Exception as exc:  # the oracle itself failing is a failed check
                checks.ok(f"oracle for {name} ran ({exc})", False)
    single = [e for n, e in errors.items() if len(gates[n].schedule.plays()) == 1]
    composite = [e for n, e in errors.items() if len(gates[n].schedule.plays()) > 1]
    unitary_err_max = max(single, default=0.0)

    e2e = {"wall_s": wall_s, "peak_rss_mb": rss, "oracle_err_max": unitary_err_max}
    layer = {
        "calibrate.store_bytes": store_bytes,
        "calibrate.gate_fidelity_min": min((g.fidelity for n, g in gates.items() if n in gate_set), default=0.0),
        "experiments.bell_fidelity": fid,
        "experiments.bell_concurrence": conc,
        "experiments.bell_store_gap": abs(fid - bells["store"].metrics[0].value),
        "oracle.unitary_err_max": unitary_err_max,
        "oracle.composite_err_max": max(composite, default=0.0),
        **{f"oracle.{n}": errors.get(n, 0.0) for n in gate_set},
    }
    stages = {
        "calibrate_s": calibrate_s, "store_load_s": load_s,
        **{f"bell_{m}_s": s for m, s in bell_s.items()},
        "bell_duration_ns": full.duration_ns, **layer,
    }
    return e2e, layer, stages


def gate_oracle_error(p, gate, src: str) -> float:
    """max |U_stored - U_oracle|; the propagator is cached per program source."""
    import numpy as np
    from qutritcr.device import FrameSpec
    from qutritcr.hamiltonian import rotating_frame_hamiltonian
    from qutritcr.propagate import EvolveOptions, evolve_unitary

    key = hashlib.sha256(f"{src}|{gate.schedule!r}|{ORACLE_REL_TOL}|{ORACLE_ABS_TOL}".encode()).hexdigest()
    cached = OUT / "oracle" / f"{key}.npy"
    if cached.is_file():
        u = np.load(cached)
    else:
        prov = rotating_frame_hamiltonian(p, FrameSpec.bare(p), gate.schedule, rwa=False)
        opts = EvolveOptions(rel_tol=ORACLE_REL_TOL, abs_tol=ORACLE_ABS_TOL)
        u = evolve_unitary(prov, 0.0, gate.schedule.duration, opts)
        cached.parent.mkdir(parents=True, exist_ok=True)
        tmp = cached.with_suffix(f".{os.getpid()}.tmp.npy")
        np.save(tmp, u)
        os.replace(tmp, cached)
    u = np.exp(1j * gate.post_phases)[:, None] * u * np.exp(1j * gate.pre_phases)[None, :]
    return float(np.max(np.abs(u - gate.unitary)))


# ---------------------------------------------------------------------------
# scan


def warm_scan(args, run_dir: Path) -> None:
    """One untimed, untraced Rabi scan: lazy imports and first-call costs."""
    from qutritcr import experiments

    cfg = experiments.ExperimentConfig(seed=args.seed)
    experiments.cmd_rabi(cfg, "01", (0, 1, 2), sum(SCAN_AMP_RANGE) / 2, SCAN_T_MAX_NS, SCAN_POINTS, str(run_dir / "warm"))


def run_scan(args, run_dir: Path, checks: Checks, patches, stop_trace) -> tuple[dict, dict, dict]:
    import numpy as np
    from qutritcr import experiments

    cfg = experiments.ExperimentConfig(seed=args.seed)
    rng = np.random.default_rng(args.seed)
    lo, hi = SCAN_AMP_RANGE
    sweeps = []
    start = time.perf_counter()
    while len(sweeps) < SCAN_MIN_SWEEPS or time.perf_counter() - start < args.seconds:
        k = len(sweeps)
        # one amplitude per stratum of [lo, hi]: every sweep spans the range
        amps = [float(a) for a in lo + (hi - lo) * (np.arange(SCAN_AMPS) + rng.random(SCAN_AMPS)) / SCAN_AMPS]
        t0 = time.perf_counter()
        for i, amp in enumerate(amps):
            for sub in ("01", "12"):
                experiments.cmd_rabi(cfg, sub, (0, 1, 2), amp, SCAN_T_MAX_NS, SCAN_POINTS, str(run_dir / f"s{k}" / f"a{i}"))
        sweeps.append((amps, time.perf_counter() - t0))
    rss = peak_rss_mb()
    stop_trace()
    checks.ran(len(sweeps) * SCAN_AMPS * 2)

    for k, (amps, _) in enumerate(sweeps):
        for i in range(len(amps)):
            for sub in ("01", "12"):
                check_rabi_outputs(run_dir / f"s{k}" / f"a{i}", sub, checks)
    err = 0.0
    for i, amp in enumerate(sweeps[0][0]):
        for sub in ("01", "12"):
            err = max(err, scan_oracle_error(cfg, sub, amp, run_dir / "s0" / f"a{i}"))

    # the median over the whole run: a stall of the shared host hits single sweeps
    sweep_s = statistics.median(s for _, s in sweeps)
    points = SCAN_AMPS * 2 * 3 * SCAN_POINTS
    e2e = {"wall_s": sweep_s, "peak_rss_mb": rss, "oracle_err_max": err}
    layer = {"scan.points_per_s": points / sweep_s, "oracle.scan_err_max": err}
    stages = {"sweeps": len(sweeps), "sweep_s": [s for _, s in sweeps], **layer}
    return e2e, layer, stages


def read_rabi_csv(path: Path):
    import numpy as np

    with open(path) as f:
        header = f.readline().strip().split(",")
        rows = np.array([[float(x) for x in ln.split(",")] for ln in f if ln.strip()])
    return header, rows


def check_rabi_outputs(d: Path, sub: str, checks: Checks) -> None:
    for c in (0, 1, 2):
        path = d / f"rabi_{sub}_c{c}.csv"
        if not checks.ok(f"{path.relative_to(OUT)} exists", path.is_file()):
            continue
        header, rows = read_rabi_csv(path)
        shaped = len(header) == 10 and rows.shape == (SCAN_POINTS, 10)
        checks.ok(f"{path.name} in {d.name}: 128 rows of t + 9 populations", shaped)
        if shaped:
            checks.ok(f"{path.name} in {d.name}: populations sum to 1", float(abs(rows[:, 1:].sum(axis=1) - 1).max()) <= POP_SUM_TOL)
    sidecar = d / f"rabi_{sub}.json"
    if checks.ok(f"{d.name}: one fit sidecar for {sub}", sidecar.is_file()):
        fits = json.loads(sidecar.read_text()).get("fits", {})
        for c in (0, 1, 2):
            fit = fits.get(f"control_{c}")
            checks.ok(f"{d.name} {sub} control {c}: fit succeeded", fit is not None and "error" not in fit)


def scan_oracle_error(cfg, sub: str, amp: float, d: Path) -> float:
    """max |p_csv - p_oracle|: DOP853 edges, exact plateau, ideal state prep."""
    import numpy as np
    from qutritcr.calibrate import prepare_control_state
    from qutritcr.device import FrameSpec, transition_frequencies
    from qutritcr.hamiltonian import rotating_frame_hamiltonian
    from qutritcr.linalg import kron
    from qutritcr.propagate import EvolveOptions, evolve_unitary
    from qutritcr.pulses import build_cr_schedule

    p, rf, ref_width = cfg.device, cfg.risefall, 100.0
    carrier = transition_frequencies(p, dressed=True).of(2, sub)
    sched = build_cr_schedule(p, sub, amp, ref_width, rf)
    prov = rotating_frame_hamiltonian(p, FrameSpec(carrier, carrier), sched, rwa=True)
    opts = EvolveOptions(rel_tol=ORACLE_REL_TOL, abs_tol=ORACLE_ABS_TOL)
    u_rise = evolve_unitary(prov, 0.0, rf, opts)
    u_fall = evolve_unitary(prov, rf + ref_width, 2.0 * rf + ref_width, opts)
    w, v = np.linalg.eigh(prov(rf + ref_width / 2.0))
    s = 1.0 / np.sqrt(2.0)
    minus = np.array([[s, s, 0.0], [-s, s, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    err = 0.0
    for c in (0, 1, 2):
        path = d / f"rabi_{sub}_c{c}.csv"
        if not path.is_file():
            continue
        psi0, _ = prepare_control_state(p, c)
        if sub == "12":
            psi0 = kron(np.eye(3), minus) @ psi0
        _, rows = read_rabi_csv(path)
        widths = rows[:, 0] - 2.0 * rf
        coef = v.conj().T @ (u_rise @ psi0)
        states = (u_fall @ (v @ (np.exp(-1j * np.outer(widths, w)) * coef).T)).T
        err = max(err, float(np.abs(np.abs(states) ** 2 - rows[:, 1:]).max()))
    return err


# ---------------------------------------------------------------------------


def selfcheck(workload: str, layer: dict) -> list:
    missing = [k for k in EXPECTED_NONZERO[workload] if not layer.get(k)]
    stray = [k for k in EXPECTED_ZERO[workload] if layer.get(k) != 0]
    return [f"{k} is 0 on {workload}" for k in missing] + [f"{k} is not 0 on {workload}" for k in stray]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.seed)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_s = measure_setup(args.seed)

    from tracer import Patches, Tracer

    run_dir = OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    if args.workload == "scan":
        warm_scan(args, run_dir)
    checks = Checks()
    patches = Patches()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(patches)
    trace_report = {}

    def stop_trace():
        if tracer is not None:
            trace_report.update(tracer.report())
        patches.restore()

    run = run_pipeline if args.workload == "pipeline" else run_scan
    try:
        e2e, layer, stages = run(args, run_dir, checks, patches, stop_trace)
    finally:
        patches.restore()
        shutil.rmtree(run_dir, ignore_errors=True)
    e2e["setup_s"] = setup_s

    values = e2e
    if args.trace:
        values = {**trace_report, **layer, "trace.timed_s": e2e["wall_s"]}
        problems = selfcheck(args.workload, values)
        for prob in problems:
            print(f"bench: trace self-check: {prob}", file=sys.stderr)
        values["trace.selfcheck_failed"] = len(problems)
    # the declared list is the contract; a layer a workload never reaches reads 0
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in declared}
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "stages": stages, "values": values,
        "failures": checks.failures, "result": result,
    }
    if tracer is not None:
        record["trace"] = {"sites": tracer.sites, "spans": tracer.spans}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1, default=float))
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps({"stages": stages}, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
