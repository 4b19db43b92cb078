"""Wire-protocol contract: round-trips, schema errors, instance specs."""

from __future__ import annotations

import json

import pytest

from repro.bb.snapshot import SNAPSHOT_FORMAT_VERSION
from repro.service.protocol import (
    MAX_JOBS,
    MAX_MACHINES,
    SUPPORTED_SNAPSHOT_VERSIONS,
    AcceptedReply,
    CancelledReply,
    CancelRequest,
    CheckpointReply,
    DegradedReply,
    ErrorReply,
    InstanceSpec,
    OverloadedReply,
    ProtocolError,
    ResultReply,
    ResumeRequest,
    SolveParams,
    SolveRequest,
    StatusReply,
    StatusRequest,
    decode,
    encode,
)

MESSAGES = [
    SolveRequest(
        request_id="r1",
        instance=InstanceSpec.taillard(20, 5, index=3),
        params=SolveParams(selection="depth-first", max_nodes=100),
        client_id="alice",
    ),
    SolveRequest(
        request_id="r7",
        instance=InstanceSpec.taillard(20, 5, index=3),
        params=SolveParams(checkpoint_path="/tmp/r7.rpbb", checkpoint_every=500),
    ),
    SolveRequest(
        request_id="r2",
        instance=InstanceSpec.explicit([[4, 3], [2, 5], [6, 2]], name="tiny"),
    ),
    CancelRequest(request_id="r1"),
    StatusRequest(request_id="s1"),
    AcceptedReply(request_id="r1", session_id=7),
    OverloadedReply(request_id="r9", queued=64, limit=64),
    CancelledReply(request_id="r1", was_running=True),
    ErrorReply(request_id="r0", message="unknown instance kind"),
    ResultReply(
        request_id="r1",
        session_id=7,
        makespan=539,
        order=[6, 5, 0, 2, 1, 7, 4, 3],
        proved_optimal=True,
        stats={"nodes_bounded": 163},
    ),
    StatusReply(
        request_id="s1",
        active_sessions=2,
        queued_sessions=0,
        completed_sessions=5,
        dispatcher={"n_launches": 12},
    ),
    ResumeRequest(
        request_id="r3",
        snapshot_path="/tmp/session-7.rpbb",
        header={"format_version": SNAPSHOT_FORMAT_VERSION, "layout": "block"},
        client_id="bob",
    ),
    ResumeRequest(request_id="r4", snapshot_path="ckpt.rpbb"),
    CheckpointReply(
        request_id="r1",
        session_id=7,
        sequence=3,
        path="/tmp/session-7.rpbb",
        steps=192,
    ),
    DegradedReply(request_id="r1", session_id=7, reason="bounding launch timed out"),
]


class TestRoundTrip:
    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: m.type)
    def test_encode_decode_identity(self, message):
        assert decode(encode(message)) == message

    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: m.type)
    def test_wire_form_is_one_json_line(self, message):
        line = encode(message)
        assert "\n" not in line
        payload = json.loads(line)
        assert payload["type"] == message.type


class TestDecodeErrors:
    def test_malformed_json(self):
        with pytest.raises(ProtocolError, match="malformed JSON"):
            decode("{not json")

    def test_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode("[1, 2, 3]")

    def test_unknown_type(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode('{"type": "frobnicate"}')

    def test_missing_type(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode('{"request_id": "r1"}')

    def test_solve_without_instance(self):
        with pytest.raises(ProtocolError, match="instance"):
            decode('{"type": "solve", "request_id": "r1"}')

    def test_unknown_field(self):
        with pytest.raises(ProtocolError, match="payload"):
            decode('{"type": "cancel", "request_id": "r1", "bogus": 1}')

    def test_resume_without_snapshot_path(self):
        with pytest.raises(ProtocolError):
            decode('{"type": "resume", "request_id": "r1"}')

    def test_resume_rejects_unknown_snapshot_version(self):
        bad_version = max(SUPPORTED_SNAPSHOT_VERSIONS) + 1
        line = json.dumps(
            {
                "type": "resume",
                "request_id": "r1",
                "snapshot_path": "ckpt.rpbb",
                "header": {"format_version": bad_version},
            }
        )
        with pytest.raises(ProtocolError, match="format_version"):
            decode(line)

    def test_resume_rejects_non_dict_header(self):
        line = json.dumps(
            {
                "type": "resume",
                "request_id": "r1",
                "snapshot_path": "ckpt.rpbb",
                "header": [1],
            }
        )
        with pytest.raises(ProtocolError, match="header"):
            decode(line)


class TestSnapshotVersionPin:
    def test_current_snapshot_version_is_supported(self):
        """The wire allowlist must track the snapshot module's version."""
        assert SNAPSHOT_FORMAT_VERSION in SUPPORTED_SNAPSHOT_VERSIONS


class TestInstanceSpec:
    def test_taillard_materializes(self):
        instance = InstanceSpec.taillard(20, 5, index=2).to_instance()
        assert (instance.n_jobs, instance.n_machines) == (20, 5)

    def test_explicit_materializes(self):
        instance = InstanceSpec.explicit([[4, 3], [2, 5]], name="t").to_instance()
        assert (instance.n_jobs, instance.n_machines) == (2, 2)
        assert instance.name == "t"

    def test_taillard_requires_dimensions(self):
        with pytest.raises(ProtocolError, match="jobs"):
            InstanceSpec(kind="taillard").to_instance()

    def test_explicit_requires_matrix(self):
        with pytest.raises(ProtocolError, match="processing_times"):
            InstanceSpec(kind="explicit").to_instance()

    def test_unknown_kind(self):
        with pytest.raises(ProtocolError, match="unknown instance kind"):
            InstanceSpec(kind="quantum").to_instance()

    def test_largest_dimensions_materialize(self):
        instance = InstanceSpec.taillard(MAX_JOBS, 20).to_instance()
        assert instance.n_jobs == MAX_JOBS
        instance = InstanceSpec.explicit([[1] * MAX_MACHINES]).to_instance()
        assert instance.n_machines == MAX_MACHINES

    @pytest.mark.parametrize(
        "spec, limit",
        [
            (InstanceSpec.taillard(MAX_JOBS + 1, 20), "MAX_JOBS=500"),
            (InstanceSpec.taillard(0, 20), "MAX_JOBS=500"),
            (InstanceSpec.taillard(20, MAX_MACHINES + 1), "MAX_MACHINES=50"),
            (InstanceSpec.taillard(20, 0), "MAX_MACHINES=50"),
            (InstanceSpec.explicit([[1]] * (MAX_JOBS + 1)), "MAX_JOBS=500"),
            (InstanceSpec.explicit([[1] * 8000] * 2), "MAX_MACHINES=50"),
            (InstanceSpec.explicit([[1, 2], [1] * (MAX_MACHINES + 1)]), "MAX_MACHINES=50"),
        ],
        ids=[
            "jobs",
            "no-jobs",
            "machines",
            "no-machines",
            "explicit-jobs",
            "explicit-machines",
            "ragged-machines",
        ],
    )
    def test_dimensions_beyond_the_limits_are_refused(self, spec, limit):
        with pytest.raises(ProtocolError, match=limit):
            spec.to_instance()

    def test_explicit_rows_must_be_lists(self):
        with pytest.raises(ProtocolError, match="list of rows"):
            InstanceSpec(kind="explicit", processing_times=[1, 2, 3]).to_instance()
