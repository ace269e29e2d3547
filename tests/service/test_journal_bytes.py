"""The journal's frames, byte for byte.

:meth:`Journal.append` encodes only a record's ``data`` and splices the
other keys around it.  Every frame must still be exactly what framing
``json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":"))``
gives, for any JSON-able ``data``, every op and both ``nested`` values;
a schema violation must raise :func:`validate_record`'s own message.
"""

from __future__ import annotations

import json
import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import JournalError
from repro.service.journal import MAGIC, Journal, _data_encoder
from repro.service.records import SCHEMAS, OpRecord, validate_record

_FRAME = struct.Struct("<II")
_HEADER_SIZE = len(MAGIC) + 4

#: Strings with escapes, control characters, non-ASCII and astral code
#: points (surrogate pairs in ``\\u`` escapes).
_TEXT = st.one_of(
    st.text(max_size=12),
    st.sampled_from(
        ["", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f"]
        + ["é", "µs", "漢字", "😀"]
    ),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([2**53 + 1, -(2**63), 2**64 + 7]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 5e-324, float("nan")]),
    _TEXT,
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=16,
)


@st.composite
def _record_args(draw):
    """An op, a schema-valid ``data`` for it, and a ``nested`` flag."""
    op = draw(st.sampled_from(sorted(SCHEMAS)))
    data = draw(st.dictionaries(_TEXT, _VALUES, max_size=4))
    for key in SCHEMAS[op]:
        data[key] = draw(_VALUES)
    return op, data, draw(st.booleans())


def _expected_frame(record: OpRecord) -> bytes:
    payload = json.dumps(
        record.to_dict(), sort_keys=True, separators=(",", ":")
    ).encode()
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _frames(path: Path) -> list[bytes]:
    blob = path.read_bytes()
    frames, offset = [], _HEADER_SIZE
    while offset < len(blob):
        (length, _) = _FRAME.unpack_from(blob, offset)
        end = offset + _FRAME.size + length
        frames.append(blob[offset:end])
        offset = end
    return frames


@settings(max_examples=150, deadline=None)
@given(
    build=_VALUES,
    records=st.lists(_record_args(), min_size=1, max_size=4),
)
def test_frames_match_the_record_encoding(build, records):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "j.alvc"
        genesis = OpRecord(0, "genesis", {"build": build})
        expected = [_expected_frame(genesis)]
        with Journal(path, sync="off") as journal:
            assert journal.append("genesis", {"build": build}) == 0
            for op, data, nested in records:
                if op == "genesis":  # only ever seq 0
                    continue
                seq = journal.append(op, data, nested=nested)
                record = OpRecord(seq, op, data, nested)
                expected.append(_expected_frame(record))
        assert _frames(path) == expected


@settings(max_examples=150, deadline=None)
@given(data=_VALUES)
def test_both_data_encoders_match_json_dumps(data):
    """The C encoder and the pure-Python one used without ``_json``."""
    expected = json.dumps(data, sort_keys=True, separators=(",", ":"))
    for make_c in (json.encoder.c_make_encoder, None):
        assert "".join(_data_encoder({}, make_c)(data, 0)) == expected


@pytest.mark.parametrize(
    ("seq", "op", "data"),
    [
        (0, "frobnicate", {}),
        (0, "vm_migrate", {"vm": "vm-0"}),
        (0, "provision", {"entry": "stack"}),
        (1, "genesis", {"build": {}}),
    ],
)
def test_schema_violations_keep_their_messages(tmp_path, seq, op, data):
    with pytest.raises(JournalError) as expected:
        validate_record(OpRecord(seq, op, data))
    with Journal(tmp_path / "j.alvc", sync="off") as journal:
        if seq:
            journal.append("genesis", {"build": {}})
        with pytest.raises(JournalError) as raised:
            journal.append(op, data)
        assert journal.next_seq == seq
    assert str(raised.value) == str(expected.value)
    genesis = _expected_frame(OpRecord(0, "genesis", {"build": {}}))
    assert _frames(tmp_path / "j.alvc") == ([genesis] if seq else [])
