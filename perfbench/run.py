"""Fresh-process benchmark of the ptclab CLI.

    python3 perfbench/run.py --workload table-all --seed 7 --seconds 40 --trace 0

Run from the repository root.  Each workload is a fixed list of CLI commands;
every command runs as a fresh `python -m ptclab.cli ... --json` process with
PYTHONPATH=src and BLAS pinned to one thread, one process at a time (a closed
loop with one client), and every output is verified (verify.py).

--trace 0 reports the end-to-end metrics: set-up time of a fresh process,
wall and CPU time of one pass over the command list, and peak RSS.  The times
are trimmed means, scaled to a reference host speed that a fixed
calibration child measures between passes (see host_factor), because the
shared host's speed moves by up to 50% for minutes at a time.
--trace 1 reports per-layer metrics from traced.py, which runs each command
in-process with spans around the public layer functions, plus the tracing
overhead against untraced passes made in the same run.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Earlier lines, and .perfbench_out/ in the repository root, hold the
environment, per-command samples and, for traced runs, the spans.
"""

import argparse
import ctypes
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PIN_REASON = (
    "On a 2-core shared machine, OpenBLAS's default of 2 threads let per-run "
    "wall_s of the two table workloads vary by 20-30% between runs; pinned to "
    "1 thread it varied by 3-8%."
)

PTC_LABELS = "D+(1/2,0)+D-(1/2,0)+D+(0,1/2)+D-(0,1/2)"
# commands; the generator sets (plus structure constants) they need, which is
# what set-up builds; and how many (set-up, calibration) child pairs follow
# each pass, so that calibration takes a sixth to a quarter of a run
WORKLOADS = {
    "table-all": {
        "commands": [["table", "--rep", "all"]],
        "reps": ["rep1", "rep2", "rep3", "canonical8"],
        "structure_constants": False,
        "rounds_per_pass": 1,
    },
    "table-dirac8": {
        "commands": [["table", "--rep", "dirac8"]],
        "reps": ["dirac8"],
        "structure_constants": False,
        "rounds_per_pass": 1,
    },
    "checks": {
        "commands": [
            ["selftest"],
            ["algebra", "--rep", "dirac8"],
            ["algebra", "--rep", "canonical8"],
            ["massless"],
            ["classify", "--rep", "rep1", "--op", "C"],
            ["ptc", "--labels", PTC_LABELS],
        ],
        "reps": ["dirac8", "canonical8", "rep1", "rep3"],
        "structure_constants": True,
        "rounds_per_pass": 2,
    },
}

SETUP_CODE = """\
import sys
import ptclab.cli
from ptclab.generators import build_generators, structure_constants
for kind in sys.argv[2:]:
    build_generators(kind)
if sys.argv[1] == "1":
    structure_constants()
"""

# A fixed piece of work in the workloads' own mix: interpreter start and the
# numpy import, one-thread LAPACK SVDs of a small matrix and of one the size of
# a constraint system (24320 x 64 complex, a third of its rows zero), and
# interpreted Python.  It does not touch ptclab, so no change to the package
# can move it; its time moves only with the host.
CAL_CODE = """\
import numpy
rng = numpy.random.default_rng(0)
a = rng.standard_normal((2048, 64))
for _ in range(20):
    numpy.linalg.svd(a, full_matrices=False)
b = rng.standard_normal((24320, 64)) + 1j * rng.standard_normal((24320, 64))
b[::3] = 0
numpy.linalg.svd(b, full_matrices=False, compute_uv=False)
d = {}
for i in range(200000):
    k = (i * 7919) % 1009
    d[k] = d.get(k, 0) + i
"""
# The calibration child's wall time on the reference host (README.md); a
# time divided by host_factor() is the time on that host.
CAL_REF_S = 0.85

PROBE_CODE = """\
import ctypes, json, platform
import numpy, scipy
blas = getattr(numpy, "__config__", None)
blas = getattr(blas, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
info = {
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas_name": blas.get("name"),
    "blas_version": blas.get("version"),
    "blas_threads_in_effect": None,
    "address_space_randomized": None,
}
with open("/proc/self/personality") as fh:
    info["address_space_randomized"] = not int(fh.read(), 16) & 0x0040000
with open("/proc/self/maps") as fh:
    libs = sorted({l.split()[-1] for l in fh if "openblas" in l.lower() and "/" in l})
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if hasattr(lib, sym):
            fn = getattr(lib, sym)
            fn.restype = ctypes.c_int
            info["blas_threads_in_effect"] = fn()
            break
print(json.dumps(info))
"""

# name -> unit, in the order printed
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
# span or counter name -> the layer metric its self time or call count feeds
SPAN_METRICS = {
    "main": "cli.self_s",
    "build_generators": "generators.build_s",
    "structure_constants": "generators.structure_constants_s",
    "check_algebra": "generators.check_algebra_s",
    "eval_operator": "operators.eval_s",
    "apply_flags": "operators.apply_flags_s",
    "bracket_eval": "operators.bracket_eval_s",
    "build_constraints": "classify.assemble_s",
    "svd": "classify.svd_s",
    "classify": "classify.witness_s",
    "helicity_check": "labels.helicity_check_s",
}
CALL_METRICS = {
    "eval_operator": "operators.eval_calls",
    "apply_flags": "operators.apply_flags_calls",
    "svd": "classify.svd_calls",
    "det": "classify.det_calls",
    "least_squares": "classify.lm_calls",
}
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("generators.build_s", "s"),
    ("generators.structure_constants_s", "s"),
    ("generators.check_algebra_s", "s"),
    ("operators.eval_s", "s"),
    ("operators.eval_calls", "count"),
    ("operators.apply_flags_s", "s"),
    ("operators.apply_flags_calls", "count"),
    ("operators.bracket_eval_s", "s"),
    ("expr.nodes", "count"),
    ("classify.assemble_s", "s"),
    ("classify.rows", "count"),
    ("classify.zero_row_frac", "1"),
    ("classify.svd_bytes", "B"),
    ("classify.svd_s", "s"),
    ("classify.svd_calls", "count"),
    ("classify.witness_s", "s"),
    ("classify.det_calls", "count"),
    ("classify.lm_calls", "count"),
    ("classify.witness_yield", "1"),
    ("classify.rank_margin_decades", "decades"),
    ("labels.helicity_check_s", "s"),
    ("output.unstable_commands", "count"),
    ("trace.overhead", "1"),
)
# measured once per traced run, not per traced pass
PASS_METRICS = ("output.unstable_commands", "trace.overhead")
COUNT_METRICS = (
    "operators.eval_calls",
    "operators.apply_flags_calls",
    "expr.nodes",
    "classify.rows",
    "classify.zero_row_frac",
    "classify.svd_bytes",
    "classify.svd_calls",
    "classify.det_calls",
    "classify.lm_calls",
    "classify.witness_yield",
    "classify.rank_margin_decades",
)


ADDR_NO_RANDOMIZE = 0x0040000
_LIBC = ctypes.CDLL(None, use_errno=True)
_LIBC.personality.argtypes = [ctypes.c_ulong]
_LIBC.personality.restype = ctypes.c_int


def fixed_address_space():
    """Turn off address-space randomization for this process's next exec.

    The table JSON depends on the address-space layout (README.md), so every
    child of a run starts with the same layout and the byte-identity check
    compares invocations whose whole input is the same.
    """
    persona = _LIBC.personality(0xFFFFFFFF)
    if persona != -1:
        _LIBC.personality(persona | ADDR_NO_RANDOMIZE)


class Child:
    """One finished child process: exit code, output and resource use."""

    def __init__(self, argv, env, stdout_path, stderr_path):
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err,
                                    preexec_fn=fixed_address_space)
            # wait4 gives this child's own rusage, not the sum over children
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.maxrss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.stdout = Path(stdout_path).read_bytes()
        self.stderr = Path(stderr_path).read_bytes()
        self.trace = None  # what traced.py recorded, for a traced child


def hash_seed(seed: int, offset: int = 0) -> str:
    return str((seed + offset) % 2**32)


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    # the table JSON also depends on the string-hash seed: fix it per run
    env["PYTHONHASHSEED"] = hash_seed(seed)
    env.pop("PTCLAB_SEED", None)  # the seed is always passed as --seed
    return env


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3, "n": len(values)}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ptclab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def repo_commit(env):
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, check=False,
        )
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def environment(env) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", PROBE_CODE], cwd=ROOT, env=env,
        capture_output=True, text=True, check=False, preexec_fn=fixed_address_space,
    )
    try:
        versions = json.loads(probe.stdout)
    except ValueError:
        versions = {"probe_error": probe.stderr[-500:]}
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None
            )
    except OSError:
        pass
    uname = platform.uname()
    return {
        "machine": f"{uname.system} {uname.release} {uname.machine}",
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "executable": sys.executable,
        **versions,
        "blas_threads_pinned": BLAS_THREADS,
        "pinned_env": {var: str(BLAS_THREADS) for var in THREAD_VARS},
        "pin_reason": PIN_REASON,
        "python_hash_seed": env["PYTHONHASHSEED"],
        "repo_commit": repo_commit(env),
        "src_sha256": source_digest(),
        "load": "closed loop, one client: one child process at a time",
    }


class Runner:
    def __init__(self, workload: str, seed: int):
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.env = child_env(seed)
        self.reference = verify.load_reference()
        self.commands = [c + ["--seed", str(seed), "--json"] for c in self.spec["commands"]]
        self.first_stdout = {}
        self.cal_samples = []  # (wall_s, cpu_s) of each calibration child
        self.attempted = 0
        self.failures = []
        self.tag = f"{workload}-seed{seed}"
        self.trace_ids = itertools.count()

    def _paths(self):
        return OUT / f"{self.tag}.stdout", OUT / f"{self.tag}.stderr"

    def invoke(self, index: int, traced: bool = False, env: dict = None) -> Child:
        """Run command `index` as a fresh process and verify its output.

        Runs made the same way (untraced or traced, in the run's environment)
        must print the same bytes as the first such run.  A run with another
        `env` is verified but not compared.
        """
        command = self.commands[index]
        argv = [sys.executable, "-m", "ptclab.cli", *command]
        if traced:
            trace_path = OUT / f"{self.tag}.trace{next(self.trace_ids)}.json"
            trace_path.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "traced.py"), str(trace_path), "--", *command]
        child = Child(argv, env or self.env, *self._paths())
        self.attempted += 1
        reasons = verify.failures(command, child.returncode, child.stdout, self.reference)
        if traced:
            try:
                child.trace = json.loads(trace_path.read_text())
            except (OSError, ValueError):
                reasons.append("traced run wrote no trace")
            trace_path.unlink(missing_ok=True)
        if env is None:
            first = self.first_stdout.setdefault((index, traced), child.stdout)
            if child.stdout != first:
                reasons.append("stdout differs from the first run of this command")
        if reasons:
            tail = child.stderr.decode(errors="replace")[-400:]
            self.failures.append({"command": command, "traced": traced,
                                  "reasons": reasons, "stderr_tail": tail})
        return child

    def unstable_commands(self) -> int:
        """Commands whose stdout changes with the process's state alone.

        Compares the first untraced output with the first traced one and with
        one more run under another PYTHONHASHSEED.  Counted, not failed: the
        table JSON has this known defect (README.md).
        """
        env = dict(self.env, PYTHONHASHSEED=hash_seed(self.seed, 1))
        unstable = 0
        for i in range(len(self.commands)):
            plain = self.first_stdout.get((i, False))
            outputs = {self.invoke(i, env=env).stdout, self.first_stdout.get((i, True), plain)}
            unstable += outputs != {plain}
        return unstable

    def _timed(self, what: str, argv) -> Child:
        child = Child(argv, self.env, *self._paths())
        if child.returncode != 0:
            raise RuntimeError(f"{what} failed: " + child.stderr.decode(errors="replace")[-400:])
        return child

    def setup_sample(self) -> float:
        """Wall time of one fresh process that does the workload's set-up."""
        return self._timed("set-up", [
            sys.executable, "-c", SETUP_CODE,
            "1" if self.spec["structure_constants"] else "0", *self.spec["reps"],
        ]).wall_s

    def calibrate(self):
        """Run the calibration child once; keep its wall and CPU time."""
        child = self._timed("calibration", [sys.executable, "-c", CAL_CODE])
        self.cal_samples.append((child.wall_s, child.cpu_s))

    def warm_up(self):
        """One untimed set-up and calibration child: file cache and bytecode."""
        self.setup_sample()
        self._timed("calibration", [sys.executable, "-c", CAL_CODE])

    def host_factor(self, attr: str = "wall_s") -> float:
        """How much slower than the reference host this run's host ran.

        The trimmed mean calibration time (wall or CPU, as `attr`) over the
        run, over CAL_REF_S.  The host is shared and its speed drifts by up
        to 50% for minutes at a time, moving every process of a run together;
        dividing by this factor takes that drift out of the times while a
        change to ptclab still moves them.
        """
        column = ("wall_s", "cpu_s").index(attr)
        return trimmed_mean(sample[column] for sample in self.cal_samples) / CAL_REF_S

    def doctored(self) -> dict:
        """Doctored copies of the first output with an invariant cell must fail."""
        for index, command in enumerate(self.commands):
            stdout = self.first_stdout.get((index, False))
            if stdout is None:
                continue
            try:
                caught = verify.doctored_check(command, stdout, self.reference)
            except (ValueError, KeyError, TypeError, AttributeError):
                continue
            if caught["verdict"] is not None:
                return {"command": command, **caught}
        return {"command": None, "verdict": False, "residual": False}


def run_passes(seconds: float, do_pass, kinds=("plain",)) -> list:
    """Cycle through pass kinds until the next pass would overrun `seconds`.

    Every kind runs at least once.  Returns [(kind, result)].
    """
    results = []
    longest = {}
    start = time.perf_counter()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        elapsed = time.perf_counter() - start
        if i >= len(kinds) and elapsed + longest.get(kind, 0.0) > seconds:
            break
        t0 = time.perf_counter()
        results.append((kind, do_pass(kind)))
        longest[kind] = max(longest.get(kind, 0.0), time.perf_counter() - t0)
        i += 1
    return results


def trimmed_mean(values) -> float:
    """Mean without the lowest and highest tenth (at least one each from 3 up).

    On this host one process's time is often bimodal (the same command takes
    0.8 s or 1.1 s), so a median flips between the modes from run to run; a
    trimmed mean moves with their mix and still drops the odd stall.
    """
    values = sorted(values)
    k = max(1, len(values) // 10) if len(values) >= 3 else 0
    return statistics.fmean(values[k:len(values) - k])


def per_command_sum(passes, attr) -> float:
    """One pass: the sum over commands of each command's trimmed mean."""
    columns = zip(*[[getattr(c, attr) for c in children] for children in passes])
    return sum(trimmed_mean(col) for col in columns)


def end_to_end(runner: Runner, seconds: float):
    runner.warm_up()
    setup = []
    longest_round = 0.0

    def one_round():
        nonlocal longest_round
        t0 = time.perf_counter()
        setup.append(runner.setup_sample())
        runner.calibrate()
        longest_round = max(longest_round, time.perf_counter() - t0)

    def one_pass(_kind):
        children = [runner.invoke(i) for i in range(len(runner.commands))]
        # set-up and calibration samples are spread over the whole run, so
        # every metric sees the same stretch of the host's speed
        for _ in range(runner.spec["rounds_per_pass"]):
            one_round()
        return children

    start = time.perf_counter()
    passes = [children for _, children in run_passes(seconds, one_pass)]
    # the time too short for another pass goes to more set-up and calibration
    while time.perf_counter() - start + longest_round <= seconds:
        one_round()
    raw = {
        "setup_s": trimmed_mean(setup),
        "wall_s": per_command_sum(passes, "wall_s"),
        "cpu_s": per_command_sum(passes, "cpu_s"),
    }
    factor = runner.host_factor()
    cpu_factor = runner.host_factor("cpu_s")
    metrics = {
        "setup_s": raw["setup_s"] / factor,
        "wall_s": raw["wall_s"] / factor,
        "cpu_s": raw["cpu_s"] / cpu_factor,
        "peak_rss_mb": statistics.median(max(c.maxrss_mb for c in p) for p in passes),
    }
    detail = {
        "host_factor": factor,
        "host_factor_cpu": cpu_factor,
        "calibration_s": quartiles([wall for wall, _ in runner.cal_samples]),
        "cal_ref_s": CAL_REF_S,
        "unscaled": raw,
        "setup_s": quartiles(setup),
        "wall_s_per_pass": quartiles([sum(c.wall_s for c in p) for p in passes]),
        "cpu_s_per_pass": quartiles([sum(c.cpu_s for c in p) for p in passes]),
        "peak_rss_mb_per_pass": quartiles([max(c.maxrss_mb for c in p) for p in passes]),
        "samples": {
            "calibration_s": runner.cal_samples,  # (wall, cpu) pairs
            "setup_s": setup,
            "wall_s": [[c.wall_s for c in p] for p in passes],
            "cpu_s": [[c.cpu_s for c in p] for p in passes],
        },
        "per_command": {
            " ".join(cmd): {
                "wall_s": quartiles([p[i].wall_s for p in passes]),
                "cpu_s": quartiles([p[i].cpu_s for p in passes]),
                "maxrss_mb": quartiles([p[i].maxrss_mb for p in passes]),
            }
            for i, cmd in enumerate(runner.commands)
        },
    }
    return {name: (metrics[name], unit) for name, unit in END_TO_END.items()}, detail


def self_times(spans) -> dict:
    """Seconds per span name, each span counted as duration - probe - children."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, probe in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for (name, parent, start, end, probe), children in zip(spans, child_time):
        out[name] = out.get(name, 0.0) + (end - start - probe) - children
    return out


def layer_metrics(records) -> dict:
    """Per-layer metrics of one traced pass, summed over its commands."""
    m = {name: 0 for name, _ in PER_LAYER if name not in PASS_METRICS}
    m["cli.import_s"] = sum(r["import_s"] for r in records)
    nodes = {}
    rows = zero_rows = witnesses = 0
    margins = []
    for r in records:
        for name, seconds in self_times(r["spans"]).items():
            if name in SPAN_METRICS:
                m[SPAN_METRICS[name]] += seconds
        for name, calls in r["counts"].items():
            if name in CALL_METRICS:
                m[CALL_METRICS[name]] += calls
        m["classify.svd_bytes"] += r["svd_bytes"]
        rows += r["rows"]
        zero_rows += r["zero_rows"]
        witnesses += r["witnesses"]
        nodes.update(r["expr_nodes"])
        if r["rank_margin_decades"] is not None:
            margins.append(r["rank_margin_decades"])
    m["expr.nodes"] = sum(nodes.values())
    m["classify.rows"] = rows
    m["classify.zero_row_frac"] = zero_rows / rows if rows else 0.0
    m["classify.witness_yield"] = (
        witnesses / m["classify.det_calls"] if m["classify.det_calls"] else 0.0
    )
    m["classify.rank_margin_decades"] = min(margins) if margins else 0.0
    return m


def traced(runner: Runner, seconds: float):
    def one_pass(kind):
        return [runner.invoke(i, traced=kind == "traced") for i in range(len(runner.commands))]

    results = run_passes(seconds, one_pass, kinds=("plain", "traced"))
    unstable = runner.unstable_commands()
    plain = [children for kind, children in results if kind == "plain"]
    traced_passes = [children for kind, children in results if kind == "traced"]
    per_pass = [
        layer_metrics([c.trace for c in children if c.trace is not None])
        for children in traced_passes
    ]
    spans_out = [
        {"pass": n, "command": c_index, "argv": runner.commands[c_index],
         "import_s": c.trace["import_s"], "spans": c.trace["spans"]}
        for n, children in enumerate(traced_passes)
        for c_index, c in enumerate(children) if c.trace is not None
    ]
    missing = {name for children in traced_passes for c in children
               if c.trace is not None for name in c.trace["missing"]}
    metrics = {}
    for name, unit in PER_LAYER:
        if name in PASS_METRICS:
            continue
        if name in COUNT_METRICS:
            metrics[name] = per_pass[0][name]
        else:
            metrics[name] = statistics.median(p[name] for p in per_pass)
    plain_wall = per_command_sum(plain, "wall_s")
    traced_wall = per_command_sum(traced_passes, "wall_s")
    metrics["trace.overhead"] = traced_wall / plain_wall
    metrics["output.unstable_commands"] = unstable
    counts_repeat = all(
        all(p[name] == per_pass[0][name] for name in COUNT_METRICS) for p in per_pass
    )
    with open(OUT / f"{runner.tag}.spans.json", "w") as fh:
        json.dump({"fields": ["name", "parent", "start", "end", "probe_s"],
                   "commands": spans_out}, fh)
    detail = {
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "traced_passes": len(per_pass),
        "untraced_passes": len(plain),
        "counts_repeat": counts_repeat,
        "missing_names": sorted(missing),
        "per_pass": per_pass,
        "spans_file": str((OUT / f"{runner.tag}.spans.json").relative_to(ROOT)),
    }
    units = dict(PER_LAYER)
    return {name: (metrics[name], units[name]) for name, _ in PER_LAYER}, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0x5EED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ptclab" / "cli.py").is_file():
        print(f"perfbench: no ptclab sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed)
    env_record = environment(runner.env)
    if args.trace:
        metrics, detail = traced(runner, args.seconds)
    else:
        metrics, detail = end_to_end(runner, args.seconds)
    doctored = runner.doctored()
    for path in runner._paths():
        path.unlink(missing_ok=True)

    failed = len(runner.failures)
    correct = failed == 0 and doctored["verdict"] is True and doctored["residual"] is True
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commands": runner.commands,
        "environment": env_record,
        "fail_ratio": failed / runner.attempted if runner.attempted else None,
        "failures": runner.failures,
        "doctored_check": doctored,
        "detail": detail,
    }
    with open(OUT / f"{runner.tag}.trace{args.trace}.result.json", "w") as fh:
        json.dump({**record, "metrics": metrics}, fh, indent=2)
    for key in ("environment", "fail_ratio", "doctored_check", "detail"):
        print(f"# {key}: {json.dumps(record[key])}")
    for failure in runner.failures:
        print(f"# FAILED: {json.dumps(failure)}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
