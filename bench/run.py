"""oodkit benchmark: three workloads, end-to-end costs, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; oodkit is imported from ./src. Workloads:

  train_dropout   run_experiment on default_config("ce_cosine"), in-process
  train_plain     run_experiment on default_config("ce"), in-process
  cli_eval        one fresh `oodkit eval --mc-passes 200 --mahalanobis` process

Each run sets up its inputs from --seed, runs one untimed warm-up
operation and checks its outputs against the references in checks.py,
then repeats the operation for --seconds and checks that every repeat
gives the same outputs. With --trace 0 the last stdout line is a JSON
object with the end_to_end metrics of BENCHMARK.json. With --trace 1
every timed operation runs with the wrappers of spans.py installed, and
the last line carries the per_layer metrics instead. Run outputs go to
bench/.out/, of which only result.json and spans.json are kept.
"""

from time import perf_counter

BENCH_START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"

# A CLI operation that has not ended after this long is killed and failed.
CHILD_TIMEOUT_S = 120

EVAL_ARGS = ["--mc-passes", "200", "--mahalanobis"]
# cli_eval's model: ce_cosine defaults, trained for fewer epochs. Eval
# cost does not depend on how long the model trained, and 100 epochs
# would add 9 s to every set-up.
EVAL_MODEL_EPOCHS = 10

# Metric names and units are listed once, in BENCHMARK.json.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import oodkit.cli; "
    "print(time.perf_counter() - t)"
)


class OpFailed(Exception):
    """The operation itself failed (an exception or a non-zero exit)."""


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def run_child(argv: list[str], log: Path) -> tuple[int, float, float, float]:
    """Run one process from the checkout root. Returns (exit code, wall s,
    CPU s of it and its waited-for children, its peak RSS in MB)."""
    with open(log, "w") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def import_seconds() -> float:
    """Time of `import oodkit.cli` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    return float(proc.stdout)


class TrainWorkload:
    """One run_experiment call with the Mahalanobis detector, in-process."""

    def __init__(self, objective: str):
        self.objective = objective
        self.reference = None

    def setup(self, seed: int, work: Path) -> None:
        from oodkit import default_config, make_default_benchmark, run_experiment

        self.bench = make_default_benchmark(seed)
        self.config = default_config(self.objective, seed)
        self.run_experiment = run_experiment

    def op(self, work: Path, traced: bool):
        cpu, start = time.process_time(), perf_counter()
        try:
            result = self.run_experiment(self.config, self.bench, with_mahalanobis=True)
        except Exception as exc:
            traceback.print_exc()
            raise OpFailed(f"run_experiment raised {exc!r}") from exc
        sample = (perf_counter() - start, time.process_time() - cpu, None)
        trace = {"import_s": self.import_s, "spans": self.recorder.take()} if traced else None
        return sample, result, trace

    def start_tracing(self) -> None:
        self.recorder = spans.Recorder()
        spans.install(self.recorder)
        self.import_s = import_seconds()

    def check(self, work: Path, result) -> None:
        model, history, report = result
        digest = hashlib.sha256()
        for array in (*model.weights, *model.biases):
            digest.update(array.tobytes())
        digest.update(repr((history.to_dict(), report)).encode())
        if self.reference is None:
            self.reference = digest.hexdigest()
            checks.check_train_report(self.objective, model, report, self.bench)
        checks.require(digest.hexdigest() == self.reference,
                       "parameters or report differ from the warm-up call's")

    def peak_rss_mb(self, samples) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliWorkload:
    """One fresh `oodkit eval` process per operation."""

    def __init__(self):
        self.reference = None

    def setup(self, seed: int, work: Path) -> None:
        from oodkit import default_config, init_mlp, make_default_benchmark, save_model, train, write_split
        from oodkit.seeding import STREAM_INIT, derive_seed

        data = work / "data"
        data.mkdir()
        bench = make_default_benchmark(seed)
        for role, split in bench.items():
            write_split(split, data / f"{role}.csv")
        config = default_config("ce_cosine", seed)
        config.epochs = EVAL_MODEL_EPOCHS
        model = init_mlp([2, *config.hidden_dims, config.k], config.dropout_rate,
                         seed=derive_seed(seed, STREAM_INIT))
        save_model(train(config, bench, model)[0], work / "model.json")
        rel = work.relative_to(ROOT)
        self.args = ["eval", "--model", str(rel / "model.json"), "--data", str(rel / "data"),
                     "--out", str(rel / "out"), *EVAL_ARGS]

    def op(self, work: Path, traced: bool):
        shutil.rmtree(work / "out", ignore_errors=True)
        dump = work / "spans.json"
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(dump), *self.args]
        else:
            argv = [sys.executable, "-m", "oodkit.cli", *self.args]
        code, wall, cpu, rss = run_child(argv, work / "stderr.txt")
        if code != 0:
            raise OpFailed(f"oodkit eval exited {code}; see {work / 'stderr.txt'}")
        trace = json.loads(dump.read_text()) if traced else None
        return (wall, cpu, rss), None, trace

    def check(self, work: Path, result) -> None:
        out = work / "out"
        digests = checks.output_digests(out)
        if self.reference is None:
            self.reference = digests
            checks.check_eval_dir(out, work / "data", work / "model.json")
        checks.require(digests == self.reference,
                       "outputs of oodkit eval differ from the warm-up's")

    def start_tracing(self) -> None:
        """Traced operations run under traced_cli.py; nothing to install here."""

    def peak_rss_mb(self, samples) -> float:
        return statistics.median(s[2] for s in samples)


WORKLOADS = {
    "train_dropout": lambda: TrainWorkload("ce_cosine"),
    "train_plain": lambda: TrainWorkload("ce"),
    "cli_eval": CliWorkload,
}


class Runner:
    """Runs timed operations and keeps the tallies and the check time."""

    def __init__(self, workload, work: Path):
        self.workload, self.work = workload, work
        self.attempted = self.failed = 0
        self.correct = True
        self.check_s = 0.0

    def checked_op(self, traced: bool):
        """Run one operation and check it. Raises OpFailed if it fails."""
        sample, result, trace = self.workload.op(self.work, traced)
        start = perf_counter()
        try:
            self.workload.check(self.work, result)
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            self.correct = False
        self.check_s += perf_counter() - start
        return sample, trace

    def timed_ops(self, seconds: float, traced: bool):
        """Repeat the operation while the next one, taking as long as the
        last, still ends within `seconds`; always at least once."""
        samples, traces = [], []
        deadline = perf_counter() + seconds
        last = 0.0
        while not last or perf_counter() + last <= deadline:
            start = perf_counter()
            self.attempted += 1
            try:
                sample, trace = self.checked_op(traced)
                samples.append(sample)
                traces.append(trace)
            except OpFailed as exc:
                print(f"operation failed: {exc}", file=sys.stderr)
                self.failed += 1
            last = perf_counter() - start
        if not samples:
            raise SystemExit("every timed operation failed")
        return samples, traces


def per_layer(traces: list[dict], wrapper_s: float) -> dict[str, float]:
    """Median over traced operations of each per-layer metric. A metric
    named layer.field is that field of the layer's row in layer_table;
    trace.overhead_s is the wrapped calls times the cost of one wrapper."""
    per_op = []
    for trace in traces:
        table = spans.layer_table(trace["spans"])
        row = {f"{layer}.{field}": value
               for layer, fields in table.items() for field, value in fields.items()}
        row["trainer.validation_s"] = row.get("trainer.validation.total_s", 0.0)
        row["cli.import_s"] = trace["import_s"]
        row["trace.overhead_s"] = len(trace["spans"]) * wrapper_s
        per_op.append(row)
    # counts repeat exactly from one operation to the next; times do not
    return {m: (statistics.median if unit == "s" else statistics.median_low)(
                row.get(m, 0) for row in per_op)
            for m, unit in PER_LAYER.items()}


def run(args) -> dict:
    workload = WORKLOADS[args.workload]()
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    work = run_dir / "work"
    work.mkdir(parents=True)
    runner = Runner(workload, work)
    try:
        workload.setup(args.seed, work)
        try:
            runner.checked_op(traced=False)  # warm-up; later outputs must equal its
        except OpFailed as exc:
            raise SystemExit(f"warm-up operation failed: {exc}")
        setup_s = perf_counter() - BENCH_START - runner.check_s
        if not args.trace:
            samples, _ = runner.timed_ops(args.seconds, traced=False)
            values = {
                "setup_s": setup_s,
                "op_s": statistics.median(s[0] for s in samples),
                "op_cpu_s": statistics.median(s[1] for s in samples),
                "peak_rss_mb": workload.peak_rss_mb(samples),
            }
            metrics = {m: (values[m], unit) for m, unit in END_TO_END.items()}
            span_dump = []
        else:
            workload.start_tracing()
            _, traces = runner.timed_ops(args.seconds, traced=True)
            values = per_layer(traces, spans.wrapper_seconds())
            metrics = {m: (values[m], unit) for m, unit in PER_LAYER.items()}
            span_dump = traces
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (run_dir / "spans.json").write_text(json.dumps(span_dump))
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oodkit" / "__init__.py").is_file():
        print(f"error: {SRC / 'oodkit'} not found; run from an oodkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
