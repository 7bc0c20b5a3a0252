"""Tests for the live metrics endpoint (``repro.obs.server`` and
``repro-knn stats --serve``).

Two layers:

- :class:`MetricsServer` unit tests — ephemeral-port bind, the read
  endpoints (content types, payload shape), ``/healthz``/``/readyz``
  status semantics, 404 for unknown paths, and live re-reads of the
  registry between requests;
- an end-to-end CLI smoke test that spawns ``repro-knn stats --serve 0``
  as a subprocess, parses the printed bind line for the port, scrapes
  ``/metrics`` over HTTP, and asserts well-formed Prometheus output
  (the same flow the CI smoke step exercises);
- a ``repro-knn serve`` smoke test: the serving CLI with a metrics
  sidecar, answering ``/query`` on the runtime port and
  ``/healthz``/``/readyz`` (fed by ``IndexRuntime.info``) on the
  metrics port.
"""

import json
import os
import re
import subprocess
import sys
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.obs.registry import MetricsRegistry
from repro.obs.server import MetricsServer
from repro.obs.trace import QueryTrace


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10.0) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), \
            resp.read().decode("utf-8")


@pytest.fixture()
def server():
    registry = MetricsRegistry()
    registry.counter("repro_queries_total", "queries").labels(
        engine="vectorized").inc(7)
    trace = QueryTrace(query_index=3, engine="lsh",
                       n_candidates=20, n_probes=2, escalated=False,
                       stages={"lsh.validate": 0.001, "lsh.rank": 0.0005})
    srv = MetricsServer(registry, port=0,
                        traces_fn=lambda: [trace]).start()
    yield srv
    srv.stop()


class TestMetricsServer:
    def test_ephemeral_port_bound(self, server):
        assert server.port > 0
        assert server.host == "127.0.0.1"

    def test_metrics_endpoint_is_prometheus_text(self, server):
        status, ctype, body = _get(
            f"http://{server.host}:{server.port}/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        assert "version=0.0.4" in ctype
        assert "# TYPE repro_queries_total counter" in body
        assert 'repro_queries_total{engine="vectorized"} 7' in body

    def test_metrics_json_endpoint(self, server):
        status, ctype, body = _get(
            f"http://{server.host}:{server.port}/metrics.json")
        assert status == 200
        assert ctype.startswith("application/json")
        payload = json.loads(body)
        assert "metrics" in payload
        assert "repro_queries_total" in payload["metrics"]

    def test_traces_endpoint_serves_waterfalls(self, server):
        status, ctype, body = _get(
            f"http://{server.host}:{server.port}/traces")
        assert status == 200
        assert ctype.startswith("application/json")
        traces = json.loads(body)
        assert len(traces) == 1
        assert traces[0]["engine"] == "lsh"
        assert traces[0]["stages"] == {"lsh.validate": 0.001,
                                       "lsh.rank": 0.0005}

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"http://{server.host}:{server.port}/nope")
        assert excinfo.value.code == 404

    def test_scrapes_see_registry_updates(self, server):
        _, _, before = _get(
            f"http://{server.host}:{server.port}/metrics")
        assert 'repro_queries_total{engine="vectorized"} 7' in before
        server.registry.counter("repro_queries_total").labels(
            engine="vectorized").inc(3)
        _, _, after = _get(
            f"http://{server.host}:{server.port}/metrics")
        assert 'repro_queries_total{engine="vectorized"} 10' in after

    def test_healthz_defaults_to_ok(self, server):
        status, ctype, body = _get(
            f"http://{server.host}:{server.port}/healthz")
        assert status == 200
        assert ctype.startswith("application/json")
        assert json.loads(body) == {"ok": True}

    def test_healthz_false_health_fn_is_503(self):
        srv = MetricsServer(MetricsRegistry(), port=0,
                            health_fn=lambda: False).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"http://{srv.host}:{srv.port}/healthz")
            assert excinfo.value.code == 503
            assert json.loads(excinfo.value.read()) == {"ok": False}
        finally:
            srv.stop()

    def test_readyz_defaults_to_ready(self, server):
        status, _, body = _get(
            f"http://{server.host}:{server.port}/readyz")
        assert status == 200
        assert json.loads(body) == {"ready": True}

    def test_readyz_payload_drives_status(self):
        state = {"ready": False, "detail": "index empty"}
        srv = MetricsServer(MetricsRegistry(), port=0,
                            ready_fn=lambda: dict(state)).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"http://{srv.host}:{srv.port}/readyz")
            assert excinfo.value.code == 503
            assert json.loads(excinfo.value.read())["detail"] == "index empty"
            state["ready"] = True
            status, _, body = _get(f"http://{srv.host}:{srv.port}/readyz")
            assert status == 200
            assert json.loads(body)["ready"] is True
        finally:
            srv.stop()

    def test_readyz_raising_fn_answers_503(self):
        def boom():
            raise RuntimeError("probe failed")

        srv = MetricsServer(MetricsRegistry(), port=0,
                            ready_fn=boom).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"http://{srv.host}:{srv.port}/readyz")
            assert excinfo.value.code == 503
            payload = json.loads(excinfo.value.read())
            assert payload["ready"] is False
            assert "probe failed" in payload["detail"]
        finally:
            srv.stop()

    def test_stop_releases_port(self):
        srv = MetricsServer(MetricsRegistry(), port=0).start()
        host, port = srv.host, srv.port
        srv.stop()
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            _get(f"http://{host}:{port}/metrics")


# A line the CLI prints and this test (plus CI) parses for the port.
_BIND_RE = re.compile(r"serving metrics on http://([\d.]+):(\d+)")

# Prometheus text exposition: every non-comment line is
# ``name{labels} value`` with a float-parseable value.
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \S+$")


class TestServeCliSmoke:
    def test_stats_serve_end_to_end(self, tmp_path):
        rng = np.random.default_rng(77)
        features = str(tmp_path / "features.npy")
        queries = str(tmp_path / "queries.npy")
        np.save(features, rng.normal(size=(300, 16)))
        np.save(queries, rng.normal(size=(12, 16)))
        index_path = str(tmp_path / "index.npz")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            ["src"] + env.get("PYTHONPATH", "").split(os.pathsep))
        build = subprocess.run(
            [sys.executable, "-m", "repro.cli", "build", features,
             index_path, "--index-type", "standard", "--tables", "3",
             "--width", "8.0", "--seed", "4"],
            env=env, capture_output=True, text=True, timeout=120)
        assert build.returncode == 0, build.stderr

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "stats", index_path,
             "--queries", queries, "-k", "5", "--trace-sample", "1.0",
             "--serve", "0", "--serve-seconds", "30"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            match = None
            for _ in range(200):
                line = proc.stdout.readline()
                if not line:
                    break
                match = _BIND_RE.search(line)
                if match:
                    break
            assert match is not None, proc.stderr.read()
            host, port = match.group(1), int(match.group(2))

            status, ctype, body = _get(f"http://{host}:{port}/metrics")
            assert status == 200
            assert ctype.startswith("text/plain")
            saw_sample = False
            for line in body.splitlines():
                if not line or line.startswith("#"):
                    continue
                assert _SAMPLE_RE.match(line), line
                float(line.rsplit(" ", 1)[1])  # value parses
                saw_sample = True
            assert saw_sample
            assert 'repro_queries_total{engine="lsh"} 12' in body

            _, _, traces_body = _get(f"http://{host}:{port}/traces")
            traces = json.loads(traces_body)
            assert len(traces) == 12  # --trace-sample 1.0
            assert all("stages" in t for t in traces)
        finally:
            proc.terminate()
            proc.wait(timeout=10)


# Bind lines printed by ``repro-knn serve``: one for the query plane,
# one for the metrics sidecar.
_SERVE_RE = re.compile(r"serving knn on http://([\d.]+):(\d+)")


def _post(url: str, payload: dict):
    data = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10.0) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


class TestKnnServeSmoke:
    def test_serve_query_and_readiness_end_to_end(self, tmp_path):
        rng = np.random.default_rng(19)
        features = str(tmp_path / "features.npy")
        np.save(features, rng.normal(size=(250, 12)))
        index_path = str(tmp_path / "index.npz")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            ["src"] + env.get("PYTHONPATH", "").split(os.pathsep))
        build = subprocess.run(
            [sys.executable, "-m", "repro.cli", "build", features,
             index_path, "--index-type", "standard", "--tables", "3",
             "--width", "8.0", "--seed", "11"],
            env=env, capture_output=True, text=True, timeout=120)
        assert build.returncode == 0, build.stderr

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", index_path,
             "--port", "0", "--metrics-port", "0",
             "--serve-seconds", "30"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            serve_match = metrics_match = None
            for _ in range(200):
                line = proc.stdout.readline()
                if not line:
                    break
                serve_match = serve_match or _SERVE_RE.search(line)
                metrics_match = metrics_match or _BIND_RE.search(line)
                if serve_match and metrics_match:
                    break
            assert serve_match is not None, proc.stderr.read()
            assert metrics_match is not None, proc.stderr.read()
            qhost, qport = serve_match.group(1), int(serve_match.group(2))
            mhost, mport = metrics_match.group(1), int(metrics_match.group(2))

            # Query plane: /query answers with ids/distances/stats.
            query = rng.normal(size=12).tolist()
            status, payload = _post(
                f"http://{qhost}:{qport}/query",
                {"queries": [query], "k": 5})
            assert status == 200
            assert payload["shed"] is False
            assert len(payload["ids"]) == 1
            assert len(payload["ids"][0]) == 5
            assert len(payload["distances"][0]) == 5
            assert "n_candidates" in payload["stats"]

            # Query plane exposes its own health/readiness too.
            status, _, body = _get(f"http://{qhost}:{qport}/healthz")
            assert status == 200 and json.loads(body) == {"ok": True}
            status, _, body = _get(f"http://{qhost}:{qport}/readyz")
            assert status == 200
            ready = json.loads(body)
            assert ready["ready"] is True
            assert ready["n_points"] == 250

            # Metrics sidecar: readiness is fed by IndexRuntime.info.
            status, _, body = _get(f"http://{mhost}:{mport}/readyz")
            assert status == 200
            sidecar = json.loads(body)
            assert sidecar["ready"] is True
            assert sidecar["n_points"] == 250
            status, _, body = _get(f"http://{mhost}:{mport}/healthz")
            assert status == 200 and json.loads(body) == {"ok": True}
            _, _, metrics_body = _get(f"http://{mhost}:{mport}/metrics")
            assert "serve_requests_total" in metrics_body
        finally:
            proc.terminate()
            proc.wait(timeout=10)
