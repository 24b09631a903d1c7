"""Golden wire vectors, recorded from the per-class codecs that the one
codec in :mod:`repro.service.api` replaced: every sample's JSON bytes,
every rejection message and every coercion must stay exactly what
clients have always been sent."""

from __future__ import annotations

import json

import pytest

from repro.service import api

from tests.service.test_api import SAMPLES

TYPES = {wire_type.__name__: wire_type for wire_type in api.WIRE_TYPES}

#: ``json.dumps(sample.to_wire())`` for every sample of ``test_api``.
SAMPLE_JSON = {
    'ChallengeRequest':
        '{"user_id": "dr-1"}',
    'ChallengeResponse':
        '{"user_id": "dr-1", "nonce": "00ff", "issued_at": 1170000000.0}',
    'LoginRequest':
        '{"user_id": "dr-1", "response": "ab"}',
    'SessionEnvelope':
        '{"token": "abc", "session_id": "sess-1", "user_id": "dr-1", "issued_at": 1.0, "expires_at": 2.0}',
    'StoreRecordRequest':
        '{"record_id": "r-1", "patient_id": "p-1", "record_type": "clinical_note", "created_at": 1170000000.0, "body": {"text": "hi"}}',
    'StoreRecordResponse':
        '{"record_id": "r-1", "patient_id": "p-1", "versions": 2}',
    'RecordEnvelope':
        '{"record_id": "r-1", "patient_id": "p-1", "record_type": "clinical_note", "created_at": 1170000000.0, "body": {"text": "hi"}, "version": 1}',
    'SearchResponse':
        '{"term": "x", "record_ids": ["r-1", "r-2"]}',
    'PatientRecordsResponse':
        '{"patient_id": "p-1", "record_ids": ["r-1"]}',
    'AuditQueryRequest':
        '{"actor_id": "dr-1", "action": "record_read", "subject_id": "r-1", "limit": 5}',
    'AuditEventsResponse':
        '{"events": [{"sequence": 0, "action": "record_read"}], "total": 1}',
    'VerifyResponse':
        '{"ok": false, "integrity": "full", "audit": "full", "violations": ["shard-00: bad"]}',
    'BreakGlassRequest':
        '{"patient_id": "p-1", "justification": "unconscious in ER"}',
    'BreakGlassResponse':
        '{"grant_id": "bg-1", "patient_id": "p-1", "user_id": "nurse-1"}',
    'HealthzResponse':
        '{"status": "ok", "shards": ["shard-00"], "queue_depth": 1, "queue_limit": 64, "active_sessions": 3, "draining": false}',
    'ErrorBody':
        '{"error": {"status": 403, "code": "access_denied", "message": "no", "rule_id": "default:deny", "trace": [{"rule": "allow:system", "outcome": "skipped"}]}}',
}

#: (wire type, payload, the WireError message — ``None``: accepted).
REJECTIONS = [
    ('LoginRequest', {'user_id': 42, 'response': 'ab'}, "field 'user_id' must be str, got int"),
    ('StoreRecordRequest', {'record_id': 'r-1', 'patient_id': 'p-1', 'record_type': 'clinical_note', 'created_at': 1170000000.0, 'body': 'not a dict'}, "field 'body' must be dict, got str"),
    ('AuditQueryRequest', {'limit': 0}, "field 'limit' must be >= 1"),
    ('BreakGlassRequest', {'patient_id': 'p', 'justification': '  '}, "field 'justification' must not be blank"),
    ('LoginRequest', 'not an object', 'expected a JSON object, got str'),
    ('ChallengeRequest', {}, "missing required field 'user_id'"),
    ('ChallengeResponse', {'nonce': '00ff', 'issued_at': 1170000000.0}, "missing required field 'user_id'"),
    ('ChallengeResponse', {'user_id': 'dr-1', 'issued_at': 1170000000.0}, "missing required field 'nonce'"),
    ('ChallengeResponse', {'user_id': 'dr-1', 'nonce': '00ff'}, "missing required field 'issued_at'"),
    ('LoginRequest', {'response': 'ab'}, "missing required field 'user_id'"),
    ('LoginRequest', {'user_id': 'dr-1'}, "missing required field 'response'"),
    ('SessionEnvelope', {'session_id': 'sess-1', 'user_id': 'dr-1', 'issued_at': 1.0, 'expires_at': 2.0}, "missing required field 'token'"),
    ('SessionEnvelope', {'token': 'abc', 'user_id': 'dr-1', 'issued_at': 1.0, 'expires_at': 2.0}, "missing required field 'session_id'"),
    ('SessionEnvelope', {'token': 'abc', 'session_id': 'sess-1', 'issued_at': 1.0, 'expires_at': 2.0}, "missing required field 'user_id'"),
    ('SessionEnvelope', {'token': 'abc', 'session_id': 'sess-1', 'user_id': 'dr-1', 'expires_at': 2.0}, "missing required field 'issued_at'"),
    ('SessionEnvelope', {'token': 'abc', 'session_id': 'sess-1', 'user_id': 'dr-1', 'issued_at': 1.0}, "missing required field 'expires_at'"),
    ('StoreRecordRequest', {'patient_id': 'p-1', 'record_type': 'clinical_note', 'created_at': 1170000000.0, 'body': {'text': 'hi'}}, "missing required field 'record_id'"),
    ('StoreRecordRequest', {'record_id': 'r-1', 'record_type': 'clinical_note', 'created_at': 1170000000.0, 'body': {'text': 'hi'}}, "missing required field 'patient_id'"),
    ('StoreRecordRequest', {'record_id': 'r-1', 'patient_id': 'p-1', 'created_at': 1170000000.0, 'body': {'text': 'hi'}}, "missing required field 'record_type'"),
    ('StoreRecordRequest', {'record_id': 'r-1', 'patient_id': 'p-1', 'record_type': 'clinical_note', 'body': {'text': 'hi'}}, "missing required field 'created_at'"),
    ('StoreRecordRequest', {'record_id': 'r-1', 'patient_id': 'p-1', 'record_type': 'clinical_note', 'created_at': 1170000000.0}, "missing required field 'body'"),
    ('StoreRecordResponse', {'patient_id': 'p-1', 'versions': 2}, "missing required field 'record_id'"),
    ('StoreRecordResponse', {'record_id': 'r-1', 'versions': 2}, "missing required field 'patient_id'"),
    ('StoreRecordResponse', {'record_id': 'r-1', 'patient_id': 'p-1'}, "missing required field 'versions'"),
    ('RecordEnvelope', {'patient_id': 'p-1', 'record_type': 'clinical_note', 'created_at': 1170000000.0, 'body': {'text': 'hi'}, 'version': 1}, "missing required field 'record_id'"),
    ('RecordEnvelope', {'record_id': 'r-1', 'record_type': 'clinical_note', 'created_at': 1170000000.0, 'body': {'text': 'hi'}, 'version': 1}, "missing required field 'patient_id'"),
    ('RecordEnvelope', {'record_id': 'r-1', 'patient_id': 'p-1', 'created_at': 1170000000.0, 'body': {'text': 'hi'}, 'version': 1}, "missing required field 'record_type'"),
    ('RecordEnvelope', {'record_id': 'r-1', 'patient_id': 'p-1', 'record_type': 'clinical_note', 'body': {'text': 'hi'}, 'version': 1}, "missing required field 'created_at'"),
    ('RecordEnvelope', {'record_id': 'r-1', 'patient_id': 'p-1', 'record_type': 'clinical_note', 'created_at': 1170000000.0, 'version': 1}, "missing required field 'body'"),
    ('RecordEnvelope', {'record_id': 'r-1', 'patient_id': 'p-1', 'record_type': 'clinical_note', 'created_at': 1170000000.0, 'body': {'text': 'hi'}}, "missing required field 'version'"),
    ('SearchResponse', {'record_ids': ['r-1', 'r-2']}, "missing required field 'term'"),
    ('SearchResponse', {'term': 'x'}, None),
    ('PatientRecordsResponse', {'record_ids': ['r-1']}, "missing required field 'patient_id'"),
    ('PatientRecordsResponse', {'patient_id': 'p-1'}, None),
    ('AuditQueryRequest', {'action': 'record_read', 'subject_id': 'r-1', 'limit': 5}, None),
    ('AuditQueryRequest', {'actor_id': 'dr-1', 'subject_id': 'r-1', 'limit': 5}, None),
    ('AuditQueryRequest', {'actor_id': 'dr-1', 'action': 'record_read', 'limit': 5}, None),
    ('AuditQueryRequest', {'actor_id': 'dr-1', 'action': 'record_read', 'subject_id': 'r-1'}, None),
    ('AuditEventsResponse', {'total': 1}, "missing required field 'events'"),
    ('AuditEventsResponse', {'events': [{'sequence': 0, 'action': 'record_read'}]}, "missing required field 'total'"),
    ('VerifyResponse', {'integrity': 'full', 'audit': 'full', 'violations': ['shard-00: bad']}, "missing required field 'ok'"),
    ('VerifyResponse', {'ok': False, 'audit': 'full', 'violations': ['shard-00: bad']}, "missing required field 'integrity'"),
    ('VerifyResponse', {'ok': False, 'integrity': 'full', 'violations': ['shard-00: bad']}, "missing required field 'audit'"),
    ('VerifyResponse', {'ok': False, 'integrity': 'full', 'audit': 'full'}, None),
    ('BreakGlassRequest', {'justification': 'unconscious in ER'}, "missing required field 'patient_id'"),
    ('BreakGlassRequest', {'patient_id': 'p-1'}, "missing required field 'justification'"),
    ('BreakGlassResponse', {'patient_id': 'p-1', 'user_id': 'nurse-1'}, "missing required field 'grant_id'"),
    ('BreakGlassResponse', {'grant_id': 'bg-1', 'user_id': 'nurse-1'}, "missing required field 'patient_id'"),
    ('BreakGlassResponse', {'grant_id': 'bg-1', 'patient_id': 'p-1'}, "missing required field 'user_id'"),
    ('HealthzResponse', {'shards': ['shard-00'], 'queue_depth': 1, 'queue_limit': 64, 'active_sessions': 3, 'draining': False}, "missing required field 'status'"),
    ('HealthzResponse', {'status': 'ok', 'queue_depth': 1, 'queue_limit': 64, 'active_sessions': 3, 'draining': False}, None),
    ('HealthzResponse', {'status': 'ok', 'shards': ['shard-00'], 'queue_limit': 64, 'active_sessions': 3, 'draining': False}, "missing required field 'queue_depth'"),
    ('HealthzResponse', {'status': 'ok', 'shards': ['shard-00'], 'queue_depth': 1, 'active_sessions': 3, 'draining': False}, "missing required field 'queue_limit'"),
    ('HealthzResponse', {'status': 'ok', 'shards': ['shard-00'], 'queue_depth': 1, 'queue_limit': 64, 'draining': False}, "missing required field 'active_sessions'"),
    ('HealthzResponse', {'status': 'ok', 'shards': ['shard-00'], 'queue_depth': 1, 'queue_limit': 64, 'active_sessions': 3}, "missing required field 'draining'"),
    ('ErrorBody', {}, "missing required field 'error'"),
    ('SearchResponse', {'term': 'x', 'record_ids': ['a', 1]}, "field 'record_ids' must be a list of strings"),
    ('SearchResponse', {'term': 'x', 'record_ids': 'a'}, "field 'record_ids' must be list, got str"),
    ('AuditEventsResponse', {'events': [1], 'total': 1}, "field 'events' must be a list of objects"),
    ('ErrorBody', {'error': {'status': 1, 'code': 'c', 'message': 'm', 'trace': [1]}}, "field 'error.trace' must be a list of objects"),
    ('ErrorBody', {'error': {'status': 1, 'code': 'c', 'message': 'm', 'trace': 'x'}}, "field 'error.trace' must be a list of objects"),
    ('ErrorBody', {'error': []}, "field 'error' must be dict, got list"),
    ('ErrorBody', [], 'expected a JSON object, got list'),
    ('HealthzResponse', {'status': 'ok', 'shards': ['shard-00'], 'queue_depth': 1, 'queue_limit': 64, 'active_sessions': 3, 'draining': 0}, "field 'draining' must be bool, got int"),
    ('StoreRecordResponse', {'record_id': 'r', 'patient_id': 'p', 'versions': True}, "field 'versions' must be int, got bool"),
    ('ChallengeResponse', {'user_id': 'u', 'nonce': '00', 'issued_at': True}, "field 'issued_at' must be float, got bool"),
    ('AuditQueryRequest', {'limit': '5'}, "field 'limit' must be int, got str"),
    ('VerifyResponse', {'ok': 1, 'integrity': 'i', 'audit': 'a'}, "field 'ok' must be bool, got int"),
    ('ErrorBody', {'error': {}}, "missing required field 'status'"),
    ('BreakGlassRequest', {'patient_id': 5, 'justification': ' '}, "field 'justification' must not be blank"),
    ('AuditQueryRequest', {'actor_id': 5, 'limit': 0}, "field 'limit' must be >= 1"),
    ('ErrorBody', {'error': {'status': 'x', 'trace': 1}}, "field 'error.trace' must be a list of objects"),
]

#: (wire type, payload, ``json.dumps(from_wire(payload).to_wire())``).
REENCODED = [
    ('ChallengeResponse', {'user_id': 'u', 'nonce': '00', 'issued_at': 7}, '{"user_id": "u", "nonce": "00", "issued_at": 7.0}'),
    ('SearchResponse', {'term': 'x'}, '{"term": "x", "record_ids": []}'),
    ('VerifyResponse', {'ok': True, 'integrity': 'i', 'audit': 'a'}, '{"ok": true, "integrity": "i", "audit": "a", "violations": []}'),
    ('AuditQueryRequest', {}, '{"actor_id": "", "action": "", "subject_id": "", "limit": 100}'),
    ('ErrorBody', {'error': {'status': 404, 'code': 'c', 'message': 'm', 'rule_id': ''}}, '{"error": {"status": 404, "code": "c", "message": "m"}}'),
]


@pytest.mark.parametrize("name", sorted(SAMPLE_JSON))
def test_sample_bytes_are_unchanged(name):
    assert json.dumps(SAMPLES[TYPES[name]].to_wire()) == SAMPLE_JSON[name]


@pytest.mark.parametrize("name, payload, message", REJECTIONS)
def test_rejection_messages_are_unchanged(name, payload, message):
    if message is None:
        TYPES[name].from_wire(payload)
    else:
        with pytest.raises(api.WireError) as rejected:
            TYPES[name].from_wire(payload)
        assert str(rejected.value) == message


@pytest.mark.parametrize("name, payload, encoded", REENCODED)
def test_coerced_payloads_reencode_unchanged(name, payload, encoded):
    assert json.dumps(TYPES[name].from_wire(payload).to_wire()) == encoded
