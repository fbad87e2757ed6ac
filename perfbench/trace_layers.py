"""Traced mode: wrap the public functions of each powermap module from
outside, recording spans (name, parent, start, end) for coarse calls and
call/time counters for hot ones. Nothing inside powermap is edited; the
wrappers replace the module and class attributes, including names bound by
`from ... import ...` in sibling modules.

Everything is kept in memory and returned by Tracer.dump() at the end.
Calls made inside pool workers (forked, so they inherit the wrappers) are
summed per grid-point estimate and appended to one file per worker, because a
pool worker exits without running any hook of ours.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

_clock = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes


class Tracer:
    def __init__(self, worker_dir: str) -> None:
        self.pid = os.getpid()
        self.worker_dir = worker_dir
        os.makedirs(worker_dir, exist_ok=True)
        self.spans: list[list] = []  # [name, parent index or None, start, end]
        self.stack: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.pools: list[float] = []
        self.nearest_log: list[list] = []

    # ------------------------------------------------------------ wrappers

    def _span(self, name, func, after=None):
        counters, spans, stack = self.counters, self.spans, self.stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                return func(*args, **kwargs)
            index = len(spans)
            start = _clock()
            spans.append([name, stack[-1] if stack else None, start, None])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                spans[index][3] = end
                counters[name + ".calls"] += 1
                counters[name + ".s"] += end - start
            if after is not None:
                after(result, end - start, *args, **kwargs)
            return result

        return wrapper

    def _count(self, name, func, after=None):
        counters = self.counters

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = _clock()
            result = func(*args, **kwargs)
            counters[name + ".s"] += _clock() - start
            counters[name + ".calls"] += 1
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _generator(self, name, func):
        counters = self.counters

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            inner = func(*args, **kwargs)
            while True:
                start = _clock()
                try:
                    item = next(inner)
                except StopIteration:
                    counters[name + ".s"] += _clock() - start
                    return
                counters[name + ".s"] += _clock() - start
                yield item

        return wrapper

    def _estimate(self, func):
        """estimate_power: a span in this process; inside a worker, one
        record of the call's wall, CPU, peak RSS and counter deltas."""
        span = self._span("oracle.estimate_power", func, self._after_estimate)
        counters = self.counters

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if os.getpid() == self.pid:
                return span(*args, **kwargs)
            before = dict(counters)
            start, cpu = _clock(), time.process_time()
            result = func(*args, **kwargs)
            record = {
                "start": start,
                "end": _clock(),
                "cpu": time.process_time() - cpu,
                "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "nsim": _nsim(args, kwargs),
                "counters": {k: v - before.get(k, 0.0) for k, v in counters.items() if v != before.get(k, 0.0)},
            }
            path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.jsonl")
            with open(path, "a") as fh:
                fh.write(json.dumps(record) + "\n")
            return result

        return wrapper

    # ------------------------------------------------------- after-hooks

    def _after_estimate(self, result, seconds, *args, **kwargs):
        self.counters["oracle.replications"] += _nsim(args, kwargs)

    def _after_evaluate_many(self, result, seconds, oracle, chromosomes):
        self.counters["oracle.queries"] += len(chromosomes)
        if oracle.worker_count > 1 and len(chromosomes) >= 2:
            self.counters["oracle.pooled_capacity_s"] += seconds * oracle.worker_count

    def _after_evaluate_one(self, result, seconds, oracle, chromosome):
        self.counters["oracle.queries"] += 1

    def _after_ga_run(self, result, seconds, space, oracle_config, ga_config, **kwargs):
        self.counters["ga.members_evaluated"] += len(result.per_iteration) * ga_config.population_size
        self.counters["ga.queries"] += result.oracle_queries

    def _after_population(self, result, *args, **kwargs):
        # Populations that are evaluated next: the initial one and each
        # crossover output (the last of which is the terminal population).
        self.counters["ga.duplicates"] += len(result) - len(set(result))

    def _after_evaluate(self, result, seconds, ga, brute, space, k):
        self.counters["evaluate.unseen_points"] += result.grid_size - len(ga.dictionary)

    def _after_load(self, result, seconds, *args, **kwargs):
        self.counters["io.load_entries"] += len(result[0])

    def _after_write(self, result, seconds, path, *args, **kwargs):
        self.counters["io.bytes_written"] += os.path.getsize(path)

    def _after_nearest(self, result, seconds, index, query):
        self.nearest_log.append([list(query.point), [list(nb.chromosome.genes) for nb in result]])

    # ------------------------------------------------------------ install

    def install(self) -> None:
        # powermap/__init__ re-exports the function `evaluate`, which hides
        # the submodule of that name from `from powermap import evaluate`.
        evaluate, ga, grid, io, knn, oracle, regression, special = (
            importlib.import_module(f"powermap.{name}")
            for name in ("evaluate", "ga", "grid", "io", "knn", "oracle", "regression", "special")
        )
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                tracer.pools.append(_clock())
                super().__init__(*args, **kwargs)

        self._replace(oracle.ProcessPoolExecutor, TracedPool)
        import powermap.cli as cli

        functions = [
            (cli.main, self._span("cli.main", cli.main)),
            (ga.run, self._span("ga.run", ga.run, self._after_ga_run)),
            (ga.initialize_population, self._count("ga.operators", ga.initialize_population, self._after_population)),
            (ga.reproduce, self._count("ga.reproduce", ga.reproduce)),
            (ga.mutate, self._count("ga.operators", ga.mutate)),
            (ga.crossover_best_two, self._count("ga.operators", ga.crossover_best_two, self._after_population)),
            (oracle.estimate_power, self._estimate(oracle.estimate_power)),
            (regression.generate_mlr_sample, self._count("regression.sample", regression.generate_mlr_sample)),
            (regression.ols_fit, self._count("regression.fit", regression.ols_fit)),
            (regression.run_test, self._count("regression.test", regression.run_test)),
            (special.student_t_cdf, self._count("special.cdf", special.student_t_cdf)),
            (special.f_cdf, self._count("special.cdf", special.f_cdf)),
            (evaluate.evaluate, self._span("evaluate.evaluate", evaluate.evaluate, self._after_evaluate)),
            (evaluate.brute_force_manifold, self._span("evaluate.brute_force", evaluate.brute_force_manifold)),
            (io.load_dictionary_json, self._span("io.load", io.load_dictionary_json, self._after_load)),
            (io.load_queries_csv, self._span("io.load", io.load_queries_csv)),
            (io.export_dictionary_json, self._span("io.export", io.export_dictionary_json, self._after_write)),
            (io.export_dictionary_csv, self._span("io.export", io.export_dictionary_csv, self._after_write)),
            (io.write_predictions_csv, self._span("io.predictions_write", io.write_predictions_csv, self._after_write)),
        ]
        for original, wrapper in functions:
            self._replace(original, wrapper)
        methods = [
            (oracle.PowerOracle, "evaluate_many", self._span, "oracle.evaluate_many", self._after_evaluate_many),
            (oracle.PowerOracle, "evaluate", self._span, "oracle.evaluate", self._after_evaluate_one),
            (grid.SearchSpace, "decode", self._count, "grid.decode", None),
            (knn.DictionaryIndex, "__init__", self._span, "knn.index_build", None),
            (knn.DictionaryIndex, "nearest", self._span, "knn.nearest", self._after_nearest),
        ]
        for cls, attr, kind, name, after in methods:
            setattr(cls, attr, kind(name, getattr(cls, attr), after))
        grid.SearchSpace.enumerate_grid = self._generator("grid.enumerate", grid.SearchSpace.enumerate_grid)

    @staticmethod
    def _replace(original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name == "powermap" or name.startswith("powermap."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, replacement)

    # ------------------------------------------------------------- output

    def dump(self) -> dict:
        workers = []
        for name in sorted(os.listdir(self.worker_dir)):
            with open(os.path.join(self.worker_dir, name)) as fh:
                workers.extend(json.loads(line) for line in fh)
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "pools": self.pools,
            "workers": workers,
            "nearest": self.nearest_log,
        }


def _nsim(args, kwargs) -> int:
    config = kwargs["config"] if "config" in kwargs else args[2]
    return config.nsim
