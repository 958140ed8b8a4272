"""Per-rule fixture tests: one true positive and one clean negative each.

Fixtures are written into a throwaway tree under ``tmp_path``; paths
under ``src/`` analyse as source files, paths under ``tests/`` analyse
as test files (the rules' ``applies_to`` split).
"""

import textwrap

from repro.analysis import Analyzer


def run(tmp_path, files, select=None):
    """Write ``files`` (rel-path -> source) and analyze the tree."""
    for rel, text in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")
    return Analyzer(root=tmp_path, select=select).analyze_paths([tmp_path])


def rules_hit(result):
    return [f.rule for f in result.findings]


class TestUnitSuffix:
    def test_flags_suffixless_parameter_and_attribute(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                class Config:
                    voltage: float = 1.0

                def solve(temperature: float):
                    return temperature
            """,
        }, select=["RPR001"])
        assert rules_hit(result) == ["RPR001", "RPR001"]
        messages = " ".join(f.message for f in result.findings)
        assert "voltage" in messages and "temperature" in messages

    def test_accepts_suffixed_and_non_numeric_names(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                class Config:
                    voltage_v: float = 1.0
                    power: "PowerBreakdown" = None
                    scales_with_power: bool = True
                    frequency_ratio: float = 0.5

                def solve(temperature_k: float, power_w_by_block: dict[str, float]):
                    return temperature_k
            """,
        }, select=["RPR001"])
        assert result.findings == []

    def test_kelvin_keyword_with_celsius_literal_warns(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                def use(solve):
                    solve(temperature_k=85.0)
            """,
        }, select=["RPR001"])
        assert rules_hit(result) == ["RPR001"]
        assert "Celsius" in result.findings[0].message

    def test_kelvin_keyword_with_kelvin_literal_is_clean(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                def use(solve):
                    solve(temperature_k=358.0)
            """,
        }, select=["RPR001"])
        assert result.findings == []

    def test_skips_test_files(self, tmp_path):
        result = run(tmp_path, {
            "tests/test_mod.py": """
                def check(temperature: float):
                    return temperature
            """,
        }, select=["RPR001"])
        assert result.findings == []


class TestDeterminism:
    def test_flags_wall_clock_rng_and_set_order(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                import random
                import time

                def key(items):
                    stamp = time.time()
                    salt = random.random()
                    return list({stamp, salt})
            """,
        }, select=["RPR002"])
        assert rules_hit(result) == ["RPR002", "RPR002", "RPR002"]

    def test_flags_builtin_hash_and_unseeded_rng(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                import numpy as np

                def key(spec):
                    rng = np.random.default_rng()
                    return hash(spec), rng
            """,
        }, select=["RPR002"])
        assert len(result.findings) == 2

    def test_seeded_rng_and_hashlib_are_clean(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                import hashlib
                import random

                def key(spec, seed):
                    rng = random.Random(seed)
                    return hashlib.sha256(spec).hexdigest(), rng
            """,
        }, select=["RPR002"])
        assert result.findings == []

    def test_scoped_to_import_closure_of_engine_jobs(self, tmp_path):
        # When repro/engine/jobs.py exists, only its import closure is
        # policed; an unreachable module may read the clock freely.
        result = run(tmp_path, {
            "src/repro/engine/jobs.py": """
                import repro.hashing
            """,
            "src/repro/hashing.py": """
                import time

                def stamp():
                    return time.time()
            """,
            "src/repro/reporting.py": """
                import time

                def stamp():
                    return time.time()
            """,
        }, select=["RPR002"])
        assert [f.path for f in result.findings] == ["src/repro/hashing.py"]

    def test_fixture_mode_skips_test_files(self, tmp_path):
        result = run(tmp_path, {
            "tests/test_mod.py": """
                import time

                def stamp():
                    return time.time()
            """,
        }, select=["RPR002"])
        assert result.findings == []


class TestPoolSafety:
    def test_flags_lambda_and_local_def_submissions(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                def launch(pool, jobs):
                    def helper(job):
                        return job

                    pool.submit(lambda: jobs[0])
                    pool.map(helper, jobs)
            """,
        }, select=["RPR003"])
        assert rules_hit(result) == ["RPR003", "RPR003"]

    def test_module_level_callable_is_clean(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                def worker(job):
                    return job

                def launch(pool, jobs):
                    pool.submit(worker, jobs[0])
            """,
        }, select=["RPR003"])
        assert result.findings == []

    def test_flags_unfrozen_job_subclass(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                from dataclasses import dataclass

                @dataclass
                class MutableJob(Job):
                    name: str
            """,
        }, select=["RPR003"])
        assert rules_hit(result) == ["RPR003"]

    def test_frozen_and_abstract_job_subclasses_are_clean(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                import abc
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class GoodJob(Job):
                    name: str

                class BaseJob(abc.ABC):
                    @abc.abstractmethod
                    def run(self):
                        ...
            """,
        }, select=["RPR003"])
        assert result.findings == []


class TestFloatEquality:
    def test_flags_float_literal_and_inf_comparisons(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                import math

                def check(x):
                    return x == 1.5 or x != math.inf
            """,
        }, select=["RPR004"])
        assert rules_hit(result) == ["RPR004", "RPR004"]

    def test_suggests_isinf_for_inf_comparisons(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                import math

                def check(x):
                    return x == math.inf
            """,
        }, select=["RPR004"])
        assert "isinf" in result.findings[0].message

    def test_int_and_string_equality_are_clean(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                def check(x, s):
                    return x == 1 and s == "done" and x is None
            """,
        }, select=["RPR004"])
        assert result.findings == []

    def test_applies_inside_test_files_too(self, tmp_path):
        result = run(tmp_path, {
            "tests/test_mod.py": """
                def test_check():
                    assert compute() == 0.5
            """,
        }, select=["RPR004"])
        assert rules_hit(result) == ["RPR004"]


class TestConstantsAudit:
    def test_flags_duplicated_paper_constants(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                EA = 0.9
                COFFIN_MANSON = 2.35
            """,
        }, select=["RPR005"])
        assert rules_hit(result) == ["RPR005", "RPR005"]

    def test_other_literals_and_canonical_file_are_clean(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                HALF = 0.5
            """,
            "src/repro/constants.py": """
                EM_ACTIVATION_ENERGY_EV = 0.9
            """,
            "tests/test_mod.py": """
                def test_ea():
                    assert abs(ea() - 0.9) < 1e-12
            """,
        }, select=["RPR005"])
        assert result.findings == []


class TestBroadExcept:
    def test_flags_bare_and_exception_handlers(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                def load(path):
                    try:
                        return open(path)
                    except Exception:
                        return None

                def probe(path):
                    try:
                        return open(path)
                    except:
                        return None
            """,
        }, select=["RPR006"])
        assert rules_hit(result) == ["RPR006", "RPR006"]

    def test_narrow_and_reraising_handlers_are_clean(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                def load(path, log):
                    try:
                        return open(path)
                    except OSError:
                        return None

                def cleanup(path, log):
                    try:
                        return open(path)
                    except BaseException:
                        log.flush()
                        raise
            """,
        }, select=["RPR006"])
        assert result.findings == []


class TestSwallowedInterrupt:
    def test_flags_swallowed_interrupt_handlers(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                def quiet(fn):
                    try:
                        return fn()
                    except KeyboardInterrupt:
                        return None

                def swallow(fn, log):
                    try:
                        return fn()
                    except (ValueError, BaseException):
                        log.flush()

                def mute(fn):
                    try:
                        return fn()
                    except:
                        pass
            """,
        }, select=["RPR007"])
        assert rules_hit(result) == ["RPR007", "RPR007", "RPR007"]

    def test_applies_inside_test_files_too(self, tmp_path):
        result = run(tmp_path, {
            "tests/test_mod.py": """
                def test_probe(fn):
                    try:
                        fn()
                    except BaseException:
                        pass
            """,
        }, select=["RPR007"])
        assert rules_hit(result) == ["RPR007"]

    def test_reraising_and_exception_handlers_are_clean(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                def cleanup(tmp, path, log):
                    try:
                        return log.replace(tmp, path)
                    except BaseException:
                        log.unlink(tmp)
                        raise

                def load(path):
                    try:
                        return open(path)
                    except Exception:
                        return None
            """,
        }, select=["RPR007"])
        assert result.findings == []


class TestParseErrors:
    def test_unparsable_file_yields_rpr000(self, tmp_path):
        result = run(tmp_path, {
            "src/broken.py": """
                def oops(:
            """,
        })
        assert rules_hit(result) == ["RPR000"]
        assert result.parse_errors == 1
        assert not result.clean


class TestAsyncBlocking:
    def test_flags_blocking_calls_in_serve_coroutines(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/serve/worker.py": """
                import subprocess
                import time

                async def decide(self, key):
                    payload = self.cache.get(key)
                    time.sleep(0.005)
                    with open("dump.json") as handle:
                        handle.read()
                    subprocess.run(["true"])
                    return payload
            """,
        }, select=["RPR008"])
        assert rules_hit(result) == ["RPR008"] * 4
        messages = " ".join(f.message for f in result.findings)
        assert "asyncio.sleep" in messages
        assert "run_in_executor" in messages
        assert "cache.get()" in messages
        assert all("async def decide" in f.message for f in result.findings)

    def test_flags_sync_store_reads_and_path_io(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/serve/state.py": """
                async def snapshot(self, path, key):
                    self.store.put(key, "kind", {})
                    return path.read_text()
            """,
        }, select=["RPR008"])
        assert rules_hit(result) == ["RPR008", "RPR008"]

    def test_flags_the_verified_store_load(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/serve/service.py": """
                async def decide(self, key, decode):
                    decision, _ = self.store.load(key, decode)
                    return decision
            """,
        }, select=["RPR008"])
        assert rules_hit(result) == ["RPR008"]
        assert "store.load()" in result.findings[0].message

    def test_clean_async_and_sync_code_pass(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/serve/service.py": """
                import asyncio

                def warm(self, path):
                    # Synchronous context: blocking calls are fine here.
                    return open(path).read()

                async def decide(self, key):
                    await asyncio.sleep(0)
                    hit = self.cache.get_memory(key)
                    if hit is None:
                        loop = asyncio.get_running_loop()
                        hit = await loop.run_in_executor(None, self._compute, key)
                    return hit
            """,
        }, select=["RPR008"])
        assert result.findings == []

    def test_nested_sync_helper_is_exempt(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/serve/http.py": """
                async def flush(self, items):
                    def on_pool(item):
                        # Runs on the worker pool, not the event loop.
                        return self.store.get(item)
                    return [on_pool(item) for item in items]
            """,
        }, select=["RPR008"])
        assert result.findings == []

    def test_out_of_scope_modules_are_ignored(self, tmp_path):
        blocking = """
            import time

            async def tick(self):
                time.sleep(1.0)
        """
        result = run(tmp_path, {
            "src/repro/harness/poller.py": blocking,
            "src/repro/servelike/poller.py": blocking,
            "tests/test_serve_thing.py": blocking,
        }, select=["RPR008"])
        assert result.findings == []
