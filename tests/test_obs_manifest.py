"""Run-manifest provenance: determinism, cache outcomes, persistence."""

import json
import subprocess
import sys

import pytest

from repro.obs import ObsConfig, RunManifest
from repro.perf import ModelTask, SimTask, SweepExecutor
from repro.perf.cache import SimCache
from repro.routing.pathset import AllVlbPolicy
from repro.sim import SimParams, simulate
from repro.topology import Dragonfly
from repro.traffic.patterns import Shift, UniformRandom

SMALL = dict(window_cycles=80, warmup_windows=1)


@pytest.fixture(scope="module")
def topo():
    return Dragonfly(2, 4, 2, 9)


class TestManifestAttachment:
    def test_every_simulate_attaches_one(self, topo):
        res = simulate(
            topo, UniformRandom(topo), 0.1,
            params=SimParams(**SMALL), seed=3,
        )
        m = res.manifest
        assert m is not None
        assert m.kind == "sim"
        assert m.fingerprint is not None
        assert m.spec_fingerprint is not None
        assert m.routing == "ugal-l"
        assert m.load == 0.1
        assert m.seed == 3
        assert m.cache == "computed"
        assert m.wall_seconds > 0
        assert m.engine_cycles == SimParams(**SMALL).total_cycles
        assert m.engine in ("array", "wheel")
        assert m.metrics is None  # metrics were off

    def test_metrics_snapshot_lands_on_manifest(self, topo):
        res = simulate(
            topo, UniformRandom(topo), 0.1,
            params=SimParams(**SMALL, obs=ObsConfig(metrics=True)),
            seed=3,
        )
        metrics = res.manifest.metrics
        assert metrics is not None
        assert metrics["engine.packets_injected"] > 0
        assert metrics["engine.cycles"] == SimParams(**SMALL).total_cycles

    def test_model_results_carry_manifests(self, topo):
        task = ModelTask(
            topo=topo, pattern=Shift(topo, 1), policy=AllVlbPolicy()
        )
        with SweepExecutor(jobs=1) as ex:
            res = ex.run_models([task])[0]
        m = res.manifest
        assert m is not None and m.kind == "model"
        assert m.fingerprint == task.key()
        assert m.wall_seconds > 0


class TestIdentityDeterminism:
    def test_identity_stable_in_process(self, topo):
        kwargs = dict(params=SimParams(**SMALL), seed=5)
        a = simulate(topo, Shift(topo, 1), 0.1, **kwargs).manifest
        b = simulate(topo, Shift(topo, 1), 0.1, **kwargs).manifest
        assert a.identity() == b.identity()

    def test_identity_matches_across_processes(self, topo):
        code = (
            "import json\n"
            "from repro.obs.manifest import RunManifest  # noqa: F401\n"
            "from repro.sim import SimParams, simulate\n"
            "from repro.topology import Dragonfly\n"
            "from repro.traffic.patterns import Shift\n"
            "topo = Dragonfly(2, 4, 2, 9)\n"
            "res = simulate(topo, Shift(topo, 1), 0.1,\n"
            "    params=SimParams(window_cycles=80, warmup_windows=1),\n"
            "    seed=5)\n"
            "print(json.dumps(res.manifest.identity()))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        ).stdout
        child_identity = json.loads(out)
        local = simulate(
            topo, Shift(topo, 1), 0.1,
            params=SimParams(**SMALL), seed=5,
        ).manifest.identity()
        assert child_identity == local

    def test_identity_neutral_to_obs(self, topo):
        base = simulate(
            topo, Shift(topo, 1), 0.1,
            params=SimParams(**SMALL), seed=5,
        ).manifest
        traced = simulate(
            topo, Shift(topo, 1), 0.1,
            params=SimParams(
                **SMALL, obs=ObsConfig(metrics=True, sample_every=20)
            ),
            seed=5,
        ).manifest
        assert base.identity() == traced.identity()


class TestDictRoundTrip:
    def test_to_from_dict(self):
        m = RunManifest(
            kind="sim", fingerprint="f" * 64, topology="dfly",
            routing="min", load=0.2, seed=9, wall_seconds=1.5,
            engine_cycles=320, engine="array", cache="stored",
            metrics={"c": 1},
        )
        again = RunManifest.from_dict(m.to_dict())
        assert again.to_dict() == m.to_dict()
        # records written before the engine field existed still load
        old = m.to_dict()
        del old["engine"]
        assert RunManifest.from_dict(old).engine is None

    def test_unknown_keys_ignored(self):
        data = RunManifest().to_dict()
        data["future_field"] = "whatever"
        assert RunManifest.from_dict(data).to_dict()["kind"] == "sim"


class TestCacheOutcomes:
    def test_stored_then_hit(self, topo, tmp_path):
        pattern = UniformRandom(topo)
        task = SimTask(
            topo, pattern, 0.05, routing="min",
            params=SimParams(**SMALL), seed=1,
        )
        cache = SimCache(str(tmp_path))
        with SweepExecutor(jobs=1, cache=cache) as ex:
            computed = ex.run([task])[0]
        assert computed.manifest.cache == "stored"

        with SweepExecutor(jobs=1, cache=cache) as ex:
            hit = ex.run([task])[0]
        assert hit.manifest is not None
        assert hit.manifest.cache == "hit"
        # provenance survived the disk round trip
        assert hit.manifest.identity() == computed.manifest.identity()
        # and the measurement itself is bit-identical (equality ignores
        # the manifest by construction)
        assert hit == computed

    def test_manifest_is_sibling_of_result_payload(self, topo, tmp_path):
        task = SimTask(
            topo, UniformRandom(topo), 0.05, routing="min",
            params=SimParams(**SMALL), seed=1,
        )
        cache = SimCache(str(tmp_path))
        with SweepExecutor(jobs=1, cache=cache) as ex:
            ex.run([task])
        record = json.load(open(cache.path_for(task.key())))
        assert "manifest" in record
        assert "manifest" not in record["result"]

    def test_pre_manifest_records_still_load(self, topo, tmp_path):
        # a v3 entry written before manifests existed has no sibling key
        task = SimTask(
            topo, UniformRandom(topo), 0.05, routing="min",
            params=SimParams(**SMALL), seed=1,
        )
        cache = SimCache(str(tmp_path))
        with SweepExecutor(jobs=1, cache=cache) as ex:
            ex.run([task])
        path = cache.path_for(task.key())
        record = json.load(open(path))
        del record["manifest"]
        with open(path, "w") as fh:
            json.dump(record, fh)
        hit = SimCache(str(tmp_path)).get(task.key())
        assert hit is not None
        assert hit.manifest is None
