"""Backend parity suite: every registered backend must satisfy the same
invariants the Lustre seed established, and the Lustre backend must stay
byte-identical to the pre-refactor behavior."""

import pickle

import pytest

from repro.backends import (
    MODEL_ROLES,
    detect_backend,
    find_backend_for_param,
    get_backend,
    list_backends,
)
from repro.cluster import make_cluster
from repro.corpus import render_manual, render_parameter_section
from repro.llm.client import LLMClient
from repro.pfs.config import PfsConfig
from repro.pfs.proctree import ProcView, build_proc_tree, writable_parameter_names
from repro.pfs.simulator import Simulator
from repro.rag.extraction import ParameterExtractor
from repro.sim.cache import RUN_CACHE
from repro.sim.random import RngStreams
from repro.workloads import get_workload

BACKENDS = list_backends()


@pytest.fixture(params=BACKENDS)
def backend(request):
    return get_backend(request.param)


@pytest.fixture(params=BACKENDS)
def cluster(request):
    return make_cluster(seed=0, backend=request.param)


class TestRegistryInvariants:
    def test_backend_self_consistent(self, backend):
        backend.validate()

    def test_selected_params_fully_documented(self, backend):
        for spec in backend.specs:
            if spec.selected:
                assert spec.doc == "full", spec.name
                assert spec.description
                assert spec.perf_note

    def test_binary_parameters_not_selected(self, backend):
        for spec in backend.specs:
            if spec.binary:
                assert not spec.selected, spec.name

    def test_every_writable_param_has_bounds(self, backend):
        for spec in backend.writable_specs():
            assert spec.min_expr is not None, spec.name
            assert spec.max_expr is not None, spec.name

    def test_parameter_names_disjoint_across_backends(self):
        seen = {}
        for name in BACKENDS:
            for param in get_backend(name).registry:
                assert param not in seen, (
                    f"{param} defined by both {seen.get(param)} and {name}"
                )
                seen[param] = name

    def test_find_and_detect_backend(self, backend):
        names = backend.selected_parameter_names()
        assert find_backend_for_param(names[0]).name == backend.name
        assert detect_backend(names).name == backend.name

    def test_detect_backend_rejects_empty(self):
        with pytest.raises(KeyError, match="match no registered backend"):
            detect_backend([])

    def test_detect_backend_rejects_unknown_names(self):
        with pytest.raises(KeyError, match="match no registered backend"):
            detect_backend(["no.such_param", "also.not_real"])

    def test_detect_backend_rejects_ambiguous_tie(self):
        # One parameter from each backend: a 1-1 coverage tie is undecidable.
        tied = [
            get_backend("lustre").selected_parameter_names()[0],
            get_backend("beegfs").selected_parameter_names()[0],
        ]
        with pytest.raises(KeyError, match="equally well"):
            detect_backend(tied)

    def test_detect_backend_majority_wins_over_stray_name(self):
        names = get_backend("beegfs").selected_parameter_names()[:3] + [
            "no.such_param"
        ]
        assert detect_backend(names).name == "beegfs"

    def test_validate_rejects_read_only_role_target(self, backend):
        from dataclasses import replace

        readonly = next(s.name for s in backend.specs if not s.writable)
        roles = dict(backend.roles)
        roles["checksums"] = (readonly, 1)
        broken = replace(backend, roles=roles)
        with pytest.raises(ValueError, match="read-only"):
            broken.validate()


class TestImportGraph:
    def test_no_library_module_imports_pfs_params(self):
        """The Lustre-bound legacy shim `repro.pfs.params` is gone; library
        code resolves parameters through the active backend."""
        import re
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        pattern = re.compile(r"repro\.pfs(?:\.params|\s+import\s+params)")
        exempt: set[str] = set()
        offenders = [
            str(path.relative_to(root))
            for path in root.rglob("*.py")
            if str(path.relative_to(root)) not in exempt
            and pattern.search(path.read_text())
        ]
        assert offenders == []

    def test_every_package_imports_first(self):
        """Each top-level package imports into a fresh interpreter state on
        its own: no import cycle depends on which package a program loads
        first (``repro.rules`` before ``repro.llm``, say)."""
        import subprocess
        import sys

        code = (
            "import importlib, pkgutil, sys\n"
            "import repro\n"
            "for info in pkgutil.iter_modules(repro.__path__, 'repro.'):\n"
            "    for name in [m for m in sys.modules if m.split('.')[0] == 'repro']:\n"
            "        del sys.modules[name]\n"
            "    importlib.import_module(info.name)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr[-2000:]


class TestConfigParity:
    def test_defaults_validate(self, backend):
        PfsConfig(backend=backend).validate()

    def test_roles_resolve_on_defaults(self, backend):
        config = PfsConfig(backend=backend)
        for role, requirement in MODEL_ROLES.items():
            entry = backend.roles.get(role)
            if entry is None:
                assert requirement == "optional"
                assert config.role(role, 7) == 7
                continue
            param, scale = entry
            assert config.role(role) == backend.registry[param].default * scale

    def test_unknown_role_requires_default(self, backend):
        config = PfsConfig(backend=backend)
        with pytest.raises(KeyError):
            config.role("no_such_role")

    def test_clipped_restores_validity(self, backend):
        config = PfsConfig(backend=backend)
        for spec in backend.writable_specs():
            if spec.ptype == "int":
                config[spec.name] = 10**9
        clipped = config.clipped()
        assert clipped.violations() == []

    def test_pickle_round_trip_carries_backend(self, backend):
        config = PfsConfig(backend=backend)
        clone = pickle.loads(pickle.dumps(config))
        assert clone.backend is config.backend
        assert clone == config

    def test_cache_key_distinguishes_backends(self):
        keys = {PfsConfig(backend=name).cache_key() for name in BACKENDS}
        assert len(keys) == len(BACKENDS)


class TestManualParity:
    def test_range_lines_only_for_full_doc(self, backend):
        for spec in backend.specs:
            section = render_parameter_section(spec, backend)
            if spec.writable and spec.doc == "full":
                assert "Valid range:" in section, spec.name
                assert "Definition:" in section
            elif spec.writable and spec.doc == "partial":
                assert section, spec.name
                assert "Valid range:" not in section, spec.name
            else:
                assert section == "", spec.name

    def test_manual_mentions_no_undocumented_params(self, backend):
        manual = render_manual(backend=backend)
        for spec in backend.specs:
            if spec.doc == "none" or not spec.writable:
                assert f"The {spec.basename} parameter" not in manual, spec.name

    def test_manual_has_filler_chapters(self, backend):
        manual = render_manual(backend=backend)
        for title, _body in backend.filler_chapters:
            assert title in manual
        assert len(manual) > 10_000


class TestProcTreeParity:
    def test_per_device_params_fan_out(self, cluster):
        entries = build_proc_tree(cluster)
        by_param = {}
        for entry in entries:
            by_param.setdefault(entry.param, []).append(entry)
        for spec in cluster.backend.specs:
            n = len(by_param[spec.name])
            if spec.per_device and spec.subsystem in cluster.backend.device_namers:
                assert n >= 1
            else:
                assert n == 1, spec.name
        assert len(entries) > len(cluster.backend.registry)

    def test_rough_filter_returns_writable_names(self, cluster):
        names = writable_parameter_names(build_proc_tree(cluster))
        expected = [s.name for s in cluster.backend.writable_specs()]
        assert sorted(names) == sorted(expected)

    def test_round_trips_reads_and_writes(self, cluster):
        config = PfsConfig(backend=cluster.backend)
        view = ProcView(cluster, config)
        for entry in view.entries:
            value = view.read(entry.path)
            if not entry.writable:
                with pytest.raises(PermissionError):
                    view.write(entry.path, value + 1)
                continue
            spec = cluster.backend.registry[entry.param]
            if spec.ptype == "bool":
                new = 1 - config[entry.param]
            else:
                new = config[entry.param] + 1
            view.write(entry.path, new)
            assert view.read(entry.path) == new
            assert config[entry.param] == new

    def test_unknown_path_rejected(self, cluster):
        view = ProcView(cluster, PfsConfig(backend=cluster.backend))
        with pytest.raises(FileNotFoundError):
            view.read("/proc/fs/nope/x/y")

    def test_cross_backend_config_rejected(self, cluster):
        other = next(n for n in BACKENDS if n != cluster.backend_name)
        with pytest.raises(ValueError, match="backend"):
            ProcView(cluster, PfsConfig(backend=other))


class TestSimulatorParity:
    def test_run_batch_bit_identical_to_sequential(self, cluster, monkeypatch):
        sim = Simulator(cluster)
        workload = get_workload("IOR_64K")
        config = PfsConfig(
            facts=cluster.config_facts(), backend=cluster.backend
        )
        seeds = [RngStreams.rep_seed(3, i) for i in range(6)]
        # Each side starts from an empty noise memo, so the sweep draws its
        # own noise instead of reading the scalar side's.
        monkeypatch.setattr("repro.pfs.simulator._NOISE_CACHE", {})
        with RUN_CACHE.disabled():
            sequential = [sim.run(workload, config, seed=s) for s in seeds]
        monkeypatch.setattr("repro.pfs.simulator._NOISE_CACHE", {})
        batched = sim.run_items((workload, config, s) for s in seeds)
        assert [r.seconds for r in batched] == [r.seconds for r in sequential]

    def test_cross_backend_config_rejected(self, cluster):
        other = next(n for n in BACKENDS if n != cluster.backend_name)
        sim = Simulator(cluster)
        config = PfsConfig(backend=other)
        with pytest.raises(ValueError, match="backend"):
            sim.run(get_workload("IOR_64K"), config, seed=0)


class TestExtractionParity:
    @pytest.fixture(scope="class", params=BACKENDS)
    def extraction(self, request):
        cluster = make_cluster(seed=0, backend=request.param)
        client = LLMClient("gpt-4o", seed=0)
        return cluster.backend, ParameterExtractor(cluster, client).run()

    def test_selects_exactly_the_registry_selection(self, extraction):
        backend, result = extraction
        assert sorted(result.selected_names) == sorted(
            backend.selected_parameter_names()
        )

    def test_binary_and_low_impact_filtered(self, extraction):
        backend, result = extraction
        for name in result.selected_names:
            assert not backend.registry[name].binary
        for name in result.filtered_binary:
            assert backend.registry[name].binary or backend.registry[name].doc != "full"


class TestTuningParity:
    @pytest.mark.parametrize("workload", ["IOR_16M", "MDWorkbench_2K"])
    def test_full_tuning_run_improves(self, cluster, workload):
        from repro.core.engine import Stellar

        engine = Stellar.build(cluster, seed=0)
        session = engine.tune(get_workload(workload))
        assert session.attempts, "tuning proposed no configurations"
        assert session.best_speedup > 1.05
        # Proposed parameters must belong to this cluster's backend.
        for attempt in session.attempts:
            for name in attempt.changes:
                assert name in cluster.backend.registry

    def test_expert_configs_valid_and_beat_defaults(self, cluster):
        from repro.baselines import expert_updates
        from repro.experiments.harness import measure_config

        backend = cluster.backend
        for workload, updates in backend.expert_configs.items():
            for name in updates:
                assert name in backend.registry, name
            expert = measure_config(
                cluster, workload, expert_updates(workload, backend), "expert",
                reps=2, seed=11,
            )
            default = measure_config(cluster, workload, {}, "default", reps=2, seed=11)
            assert expert.mean < default.mean, (backend.name, workload)


class TestCliBackendFlag:
    def test_tune_beegfs_completes(self, capsys):
        from repro.cli import main

        assert main(["tune", "IOR_16M", "--backend", "beegfs"]) == 0
        out = capsys.readouterr().out
        assert "best speedup" in out
        assert "stripe.num_targets" in out or "tune.file_cache_buf_kb" in out

    def test_list_enumerates_backends(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "backends:" in out
        assert "lustre" in out and "beegfs" in out


class TestCrossFsTransfer:
    def test_role_mapping_translates_values(self):
        from repro.experiments.crossfs import map_rule_updates
        from repro.rules.model import Rule, RuleSet

        rules = RuleSet(
            rules=[
                Rule(
                    parameter="osc.max_dirty_mb",
                    rule_description="",
                    tuning_context="",
                    recommended_value=512,
                    observed_speedup=1.4,
                ),
                Rule(
                    parameter="lov.stripe_count",
                    rule_description="",
                    tuning_context="",
                    recommended_value=-1,
                    observed_speedup=1.2,
                ),
                Rule(
                    parameter="ldlm.lru_size",  # no role: unmappable
                    rule_description="",
                    tuning_context="",
                    recommended_value=4,
                    observed_speedup=1.0,
                ),
            ]
        )
        literal, mapped, updates = map_rule_updates(rules, "lustre", "beegfs")
        assert literal == 0
        assert mapped == 2
        # MiB-counted dirty limit crosses MiB->MiB unchanged; -1 is a
        # unit-less sentinel.
        assert updates == {"tune.dirty_buf_mb": 512, "stripe.num_targets": -1}

    def test_context_tag_filters_mismatched_rules(self):
        from repro.experiments.crossfs import map_rule_updates, workload_class_tag
        from repro.rules.model import Rule, RuleSet

        rules = RuleSet(
            rules=[
                Rule(
                    parameter="lov.stripe_count",
                    rule_description="",
                    tuning_context="",
                    context_tags=["shared_seq_large"],
                    recommended_value=-1,
                    observed_speedup=1.5,
                ),
                Rule(
                    parameter="llite.statahead_max",
                    rule_description="",
                    tuning_context="",
                    context_tags=["metadata_small_files"],
                    recommended_value=512,
                    observed_speedup=1.3,
                ),
            ]
        )
        assert workload_class_tag("MDWorkbench_2K") == "metadata_small_files"
        assert workload_class_tag("IOR_16M") == "shared_seq_large"
        _, mapped, updates = map_rule_updates(
            rules, "lustre", "beegfs", context_tag="metadata_small_files"
        )
        # The bandwidth-striping rule must not transplant onto a metadata
        # storm — only the statahead analog crosses.
        assert mapped == 1
        assert updates == {"meta.dentry_prefetch_num": 512}
