"""The serve wire schemas: request, response, loadgen report."""

from repro.obs.schema import (
    SERVE_REQUEST_SCHEMA,
    SERVE_RESPONSE_SCHEMA,
    validate_loadgen,
    validate_serve_request,
    validate_serve_response,
)
from repro.serve.client import request_document


def good_request():
    return {"schema": SERVE_REQUEST_SCHEMA, "spec": "SPEC ... ENDSPEC"}


def good_response():
    return {
        "schema": SERVE_RESPONSE_SCHEMA,
        "op": "derive",
        "ok": True,
        "status": 200,
        "cache": "miss",
        "duration_s": 0.01,
        "request_id": "000001",
        "result": {"places": [1, 2]},
        "error": None,
    }


class TestRequestValidator:
    def test_accepts_the_client_document(self):
        assert validate_serve_request(request_document("SPEC")) == []
        assert validate_serve_request(
            request_document("SPEC", {"mixed_choice": True})
        ) == []

    def test_accepts_null_options(self):
        document = good_request()
        document["options"] = None
        assert validate_serve_request(document) == []

    def test_rejects_non_object(self):
        assert validate_serve_request("nope") == ["request: not an object"]

    def test_rejects_wrong_schema_tag(self):
        document = good_request()
        document["schema"] = "repro.serve.request/v0"
        assert any("schema" in p for p in validate_serve_request(document))

    def test_rejects_missing_spec(self):
        document = good_request()
        del document["spec"]
        assert any("spec" in p for p in validate_serve_request(document))

    def test_rejects_non_object_options(self):
        document = good_request()
        document["options"] = ["strict"]
        assert any("options" in p for p in validate_serve_request(document))

    def test_rejects_unknown_fields(self):
        document = good_request()
        document["verbose"] = True
        problems = validate_serve_request(document)
        assert any("unknown field" in p for p in problems)


class TestResponseValidator:
    def test_accepts_an_ok_envelope(self):
        assert validate_serve_response(good_response()) == []

    def test_accepts_an_error_envelope(self):
        document = good_response()
        document.update(
            ok=False, status=422, result=None,
            error={"type": "ParseError", "message": "bad spec"},
        )
        assert validate_serve_response(document) == []

    def test_ok_without_result_is_rejected(self):
        document = good_response()
        document["result"] = None
        assert any("result" in p for p in validate_serve_response(document))

    def test_failure_without_error_is_rejected(self):
        document = good_response()
        document.update(ok=False, error=None)
        assert any("error" in p for p in validate_serve_response(document))

    def test_unknown_cache_verdict_is_rejected(self):
        document = good_response()
        document["cache"] = "stale"
        assert any("cache" in p for p in validate_serve_response(document))


class TestLoadgenValidator:
    def good(self):
        return {
            "schema": "repro.obs.loadgen/v3",
            "op": "derive",
            "target": "127.0.0.1:8437",
            "connections": 4,
            "requests": 16,
            "completed": 16,
            "ok": 16,
            "shed": 0,
            "failed": 0,
            "statuses": {"200": 16},
            "cache": {"hit": 15, "miss": 1, "off": 0},
            "duration_s": 0.25,
            "throughput_rps": 64.0,
            "latency_ms": {
                "mean": 10.0, "p50": 9.0, "p95": 20.0, "p99": 30.0,
                "max": 31.0,
            },
        }

    def test_accepts_a_full_report(self):
        assert validate_loadgen(self.good()) == []

    def test_rejects_unknown_op(self):
        document = self.good()
        document["op"] = "frobnicate"
        assert any("op" in p for p in validate_loadgen(document))

    def test_rejects_missing_latency_fields(self):
        document = self.good()
        del document["latency_ms"]["p99"]
        assert any("p99" in p for p in validate_loadgen(document))

    def test_rejects_missing_cache_fields(self):
        document = self.good()
        del document["cache"]["off"]
        assert any("cache" in p for p in validate_loadgen(document))

    def test_rejects_retired_v2_reports(self):
        """v3 dropped v2's retry counts; a v2 report no longer validates."""
        document = self.good()
        document["schema"] = "repro.obs.loadgen/v2"
        document.update(recovered=0, exhausted=0, retries=0)
        assert any("schema" in p for p in validate_loadgen(document))
