"""Unit tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture()
def feature_file(tmp_path, gaussian_data):
    path = str(tmp_path / "features.npy")
    np.save(path, gaussian_data)
    return path


@pytest.fixture()
def query_file(tmp_path, gaussian_queries):
    path = str(tmp_path / "queries.npy")
    np.save(path, gaussian_queries)
    return path


class TestSynth:
    def test_writes_file(self, tmp_path, capsys):
        out = str(tmp_path / "synth.npy")
        rc = main(["synth", out, "--n", "200", "--dim", "16", "--seed", "1"])
        assert rc == 0
        data = np.load(out)
        assert data.shape == (200, 16)

    def test_tiny_preset(self, tmp_path):
        out = str(tmp_path / "synth.npy")
        assert main(["synth", out, "--preset", "tiny", "--n", "100",
                     "--dim", "12"]) == 0
        assert np.load(out).shape == (100, 12)


class TestBuildQueryInfo:
    def test_bilevel_roundtrip(self, tmp_path, feature_file, query_file,
                               capsys):
        index_path = str(tmp_path / "index.npz")
        rc = main(["build", feature_file, index_path, "--groups", "4",
                   "--tables", "3", "--width", "8.0", "--seed", "2"])
        assert rc == 0
        rc = main(["query", index_path, query_file, "-k", "5",
                   "--output", str(tmp_path / "res.npz")])
        assert rc == 0
        results = np.load(str(tmp_path / "res.npz"))
        assert results["ids"].shape == (30, 5)
        assert results["n_candidates"].shape == (30,)

    def test_standard_index(self, tmp_path, feature_file, query_file):
        index_path = str(tmp_path / "std.npz")
        assert main(["build", feature_file, index_path,
                     "--index-type", "standard", "--width", "8.0",
                     "--tables", "2"]) == 0
        assert main(["query", index_path, query_file, "-k", "3",
                     "--show", "2"]) == 0

    def test_shard_workers_thread_the_shards(self, tmp_path, feature_file,
                                             query_file, index_file, capsys):
        # Same answers with the shards on two threads; a bi-level index
        # is refused with a pointer at its own knob.
        index_path = str(tmp_path / "std.npz")
        assert main(["build", feature_file, index_path,
                     "--index-type", "standard", "--width", "8.0",
                     "--tables", "2"]) == 0
        outputs = []
        for extra in ([], ["--shard-workers", "2"]):
            out = str(tmp_path / f"res{len(outputs)}.npz")
            assert main(["query", index_path, query_file, "-k", "3",
                         "--max-batch-rows", "7", "--output", out]
                        + extra) == 0
            outputs.append(np.load(out))
        for key in ("ids", "distances", "n_candidates"):
            assert np.array_equal(outputs[0][key], outputs[1][key])
        capsys.readouterr()
        assert main(["query", index_file, query_file, "-k", "3",
                     "--shard-workers", "2"]) == 2
        assert "BiLevelConfig.n_jobs" in capsys.readouterr().err

    def test_info_reports_structure(self, tmp_path, feature_file, capsys):
        index_path = str(tmp_path / "index.npz")
        main(["build", feature_file, index_path, "--groups", "4",
              "--width", "8.0"])
        capsys.readouterr()
        assert main(["info", index_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == "BiLevelLSH"
        assert payload["n_groups"] == 4
        assert len(payload["group_sizes"]) == 4

    def test_tuned_build(self, tmp_path, feature_file):
        index_path = str(tmp_path / "tuned.npz")
        assert main(["build", feature_file, index_path, "--groups", "4",
                     "--tune", "--tables", "3"]) == 0

    def test_mmap_build(self, tmp_path, gaussian_data, query_file):
        raw = str(tmp_path / "features.bin")
        gaussian_data.astype(np.float64).tofile(raw)
        index_path = str(tmp_path / "ooc.npz")
        assert main(["build", raw, index_path, "--dim", "32", "--mmap",
                     "--groups", "4", "--width", "8.0",
                     "--sample-size", "300"]) == 0
        assert main(["query", index_path, query_file, "-k", "3",
                     "--show", "1"]) == 0


@pytest.fixture()
def index_file(tmp_path, feature_file):
    path = str(tmp_path / "stats_index.npz")
    assert main(["build", feature_file, path, "--groups", "4",
                 "--tables", "3", "--width", "8.0", "--seed", "2"]) == 0
    return path


class TestStats:
    def test_json_snapshot(self, index_file, query_file, capsys):
        capsys.readouterr()
        assert main(["stats", index_file, "--queries", query_file,
                     "-k", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_queries"] == 30
        assert payload["escalation"]["n_queries"] == 30
        derived = payload["derived"]
        assert derived["queries_total"] == 30
        assert derived["per_group"]
        for stats in derived["per_group"].values():
            assert 0.0 <= stats["escalation_fraction"] <= 1.0
        assert "repro_shortlist_size" in payload["metrics"]
        assert "repro_stage_seconds" in payload["metrics"]
        assert "traces" not in payload

    def test_prometheus_format(self, index_file, query_file, capsys):
        capsys.readouterr()
        assert main(["stats", index_file, "--queries", query_file,
                     "--format", "prom"]) == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_queries_total counter" in text
        assert "repro_shortlist_size_bucket" in text
        assert 'le="+Inf"' in text

    def test_traces_and_out_file(self, tmp_path, index_file, query_file):
        out = tmp_path / "snap.json"
        assert main(["stats", index_file, "--queries", query_file,
                     "--trace-sample", "1.0", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["traces"]) == 30
        assert payload["traces"][0]["engine"] == "lsh"

    def test_trace_sampling_is_seed_deterministic(self, tmp_path, index_file,
                                                  query_file):
        def indices(run: int):
            out = tmp_path / f"snap{run}.json"
            assert main(["stats", index_file, "--queries", query_file,
                         "--trace-sample", "0.3", "--seed", "9",
                         "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            return [t["query_index"] for t in payload["traces"]]

        assert indices(0) == indices(1)


class TestMetricsOut:
    def test_query_metrics_out(self, tmp_path, index_file, query_file):
        metrics = tmp_path / "metrics.json"
        assert main(["query", index_file, query_file, "-k", "5",
                     "--output", str(tmp_path / "res.npz"),
                     "--metrics-out", str(metrics)]) == 0
        snapshot = json.loads(metrics.read_text())
        assert set(snapshot) == {"metrics", "derived"}
        assert snapshot["derived"]["queries_total"] == 30

    def test_query_without_metrics_out_writes_nothing(self, tmp_path,
                                                      index_file, query_file):
        from repro import obs

        assert main(["query", index_file, query_file, "-k", "5",
                     "--output", str(tmp_path / "res.npz")]) == 0
        assert not obs.enabled()
        assert list(tmp_path.glob("*.json")) == []


class TestBench:
    def test_unknown_figure_fails(self, capsys):
        assert main(["bench", "--figure", "fig99"]) == 2

    def test_runs_diameter_quickly(self, capsys):
        # fig13c at smoke scale is the fastest full driver; still seconds.
        # Use a direct driver call guard instead: just check dispatch works
        # by invoking an existing figure name with the smoke scale.
        rc = main(["bench", "--figure", "fig13c", "--scale", "smoke"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RP-tree vs K-means" in out


class TestResilienceCLI:
    def test_query_with_deadline_and_resilient(self, tmp_path, index_file,
                                               query_file, capsys):
        out = str(tmp_path / "res.npz")
        rc = main(["query", index_file, query_file, "-k", "5",
                   "--deadline-ms", "60000", "--resilient",
                   "--output", out])
        assert rc == 0
        results = np.load(out)
        # A deadline run always materializes the exhausted mask.
        assert "exhausted_budget" in results.files
        assert not results["exhausted_budget"].any()

    def test_query_expired_deadline_flags_everything(self, index_file,
                                                     query_file, capsys):
        rc = main(["query", index_file, query_file, "-k", "5",
                   "--deadline-ms", "0.000001", "--show", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "budget-exhausted" in out

    def test_verify_index_ok(self, index_file, capsys):
        assert main(["verify-index", index_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checksummed"] is True
        assert report["n_verified"] == report["n_arrays"]

    def test_verify_index_corrupt_exits_3(self, index_file, capsys):
        with np.load(index_file) as archive:
            arrays = {k: archive[k] for k in archive.files}
        meta = json.loads(bytes(arrays["__meta__"].tobytes()).decode())
        victim = sorted(meta["checksums"])[0]
        damaged = arrays[victim].copy()
        damaged.flat[0] = damaged.flat[0] + 1
        arrays[victim] = damaged
        np.savez_compressed(index_file, **arrays)
        assert main(["verify-index", index_file]) == 3
        assert "CORRUPT" in capsys.readouterr().err

    def test_verify_index_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["verify-index", str(tmp_path / "nope.npz")]) == 2


class TestCompactCommand:
    def test_wal_on_forest_archive_is_clean_error(self, tmp_path,
                                                  gaussian_data, capsys):
        # Regression: --wal pointed at an LSHForest archive used to hit
        # replay_records' AttributeError (no insert/delete) instead of
        # the intended "no live-update path" rejection with exit 2.
        from repro.lsh.forest import LSHForest
        from repro.maintenance import WriteAheadLog
        from repro.persistence import save_index

        archive = str(tmp_path / "forest.npz")
        save_index(LSHForest(n_trees=3, seed=0).fit(gaussian_data), archive)
        wal_path = str(tmp_path / "wal.bin")
        with WriteAheadLog(wal_path) as wal:
            wal.append_delete(np.array([1], dtype=np.int64))
        assert main(["compact", archive, "--wal", wal_path]) == 2
        assert "no live-update path" in capsys.readouterr().err
