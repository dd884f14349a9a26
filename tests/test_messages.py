"""Golden wire vectors, round-trip laws and decode totality."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from tatrack import messages as m

# --- strategies -------------------------------------------------------------

rntis = st.integers(0, 0xFFFF).map(m.Rnti)
tmsis = st.integers(0, 0xFFFFFFFF).map(m.Tmsi)
imsis = st.text("0123456789", min_size=15, max_size=15).map(m.Imsi)
caps = st.binary(min_size=32, max_size=32).map(m.CapabilityVector)
grants = st.builds(m.UlGrant, st.integers(0, 255), st.integers(0, 0xFFFF),
                   st.integers(0, 31))

messages = st.one_of(
    st.builds(m.RandomAccessResponse, rntis, st.integers(0, 1282), grants),
    st.builds(m.DciFormat0, rntis, st.integers(0, 255),
              st.integers(0, 0xFFFF), st.integers(0, 31)),
    st.builds(m.MacTaCommand, st.integers(-31, 32)),
    st.builds(m.RrcConnectionRequest, tmsis, st.integers(0, 255),
              st.booleans()),
    st.builds(m.RrcConnectionSetup, st.integers(0, 255)),
    st.builds(m.AttachRequest, st.one_of(tmsis, imsis), caps),
    st.builds(m.ServiceRequest, tmsis),
    st.builds(m.IdentityRequest, st.sampled_from(list(m.IdType))),
    st.builds(m.IdentityResponse, imsis),
    st.builds(m.Ack, st.integers(0, 15)),
    st.builds(m.ServiceReject, st.integers(0, 255)),
)


# --- golden vectors ---------------------------------------------------------

def test_identity_request_golden():
    assert m.encode(m.IdentityRequest(m.IdType.IMSI)) == b"\x0a\x00\x01\x01"


def test_rar_golden():
    msg = m.RandomAccessResponse(m.Rnti(0x004A), 6, m.UlGrant(4, 0x0012, 5))
    assert m.encode(msg) == b"\x02\x00\x08\x00\x4a\x00\x06\x04\x00\x12\x05"


def test_mac_ta_golden_bias():
    assert m.encode(m.MacTaCommand(-31)) == b"\x05\x00\x01\x00"
    assert m.encode(m.MacTaCommand(32)) == b"\x05\x00\x01\x3f"


def test_identity_response_bcd_golden():
    msg = m.IdentityResponse(m.Imsi("123456789012345"))
    assert m.encode(msg) == (b"\x0b\x00\x08"
                             b"\x12\x34\x56\x78\x90\x12\x34\x5f")


def test_attach_request_payload_lengths():
    cap = m.CapabilityVector(bytes(32))
    with_tmsi = m.encode(m.AttachRequest(m.Tmsi(0xDEADBEEF), cap))
    assert len(with_tmsi) == 3 + 37
    assert with_tmsi[1:3] == (37).to_bytes(2, "big")
    with_imsi = m.encode(m.AttachRequest(m.Imsi("001010123456789"), cap))
    assert len(with_imsi) == 3 + 41


# --- round trips ------------------------------------------------------------

@given(messages)
def test_round_trip(msg):
    assert m.decode(m.encode(msg)) == msg


def test_round_trip_bulk_seeded():
    # A deterministic sweep over every variant family, independent of the
    # property run above.
    import random
    rng = random.Random(1234)
    for _ in range(2000):
        msg = _random_message(rng)
        assert m.decode(m.encode(msg)) == msg


def _random_message(rng):
    """A message of a uniformly drawn kind; only its own fields are drawn."""
    def rnti():
        return m.Rnti(rng.randrange(0x10000))

    def tmsi():
        return m.Tmsi(rng.randrange(1 << 32))

    def imsi():
        return m.Imsi("".join(rng.choices("0123456789", k=15)))

    return [
        lambda: m.RandomAccessResponse(
            rnti(), rng.randrange(1283),
            m.UlGrant(rng.randrange(256), rng.randrange(0x10000),
                      rng.randrange(32))),
        lambda: m.DciFormat0(rnti(), rng.randrange(256),
                             rng.randrange(0x10000), rng.randrange(32)),
        lambda: m.MacTaCommand(rng.randrange(-31, 33)),
        lambda: m.RrcConnectionRequest(tmsi(), rng.randrange(256),
                                       rng.random() < 0.5),
        lambda: m.RrcConnectionSetup(rng.randrange(256)),
        lambda: m.AttachRequest(tmsi() if rng.random() < 0.5 else imsi(),
                                m.CapabilityVector(rng.randbytes(32))),
        lambda: m.ServiceRequest(tmsi()),
        lambda: m.IdentityRequest(rng.choice(list(m.IdType))),
        lambda: m.IdentityResponse(imsi()),
        lambda: m.Ack(rng.randrange(16)),
        lambda: m.ServiceReject(rng.randrange(256)),
    ][rng.randrange(11)]()


# --- totality ---------------------------------------------------------------

@settings(max_examples=400)
@given(st.binary(max_size=64))
def test_decode_never_crashes(data):
    try:
        msg = m.decode(data)
    except m.DecodeError:
        return
    assert m.decode(m.encode(msg)) == msg


@given(messages, st.integers(0, 63), st.integers(0, 255))
def test_decode_survives_single_byte_corruption(msg, pos, new_byte):
    raw = bytearray(m.encode(msg))
    raw[pos % len(raw)] = new_byte
    try:
        m.decode(bytes(raw))
    except m.DecodeError:
        pass


# --- error kinds ------------------------------------------------------------

def test_truncated_rar_names_missing_field():
    raw = b"\x02\x00\x05" + b"\x00\x4a\x00\x06\x04"  # stops after offset
    with pytest.raises(m.Truncated) as exc:
        m.decode(raw)
    assert exc.value.missing == "rb_alloc"


def test_error_kinds_are_distinct():
    with pytest.raises(m.Truncated):
        m.decode(b"\x0c")  # no header
    for tag in (0x01, 0x04, 0x7F):  # unassigned tags
        with pytest.raises(m.UnknownTag):
            m.decode(bytes((tag, 0, 1, 0)))
    with pytest.raises(m.BadLength):
        m.decode(m.encode(m.Ack(3)) + b"\x00")  # trailing byte
    with pytest.raises(m.BadLength):
        m.decode(b"\x0c\x00\x02\x01\x02")  # overlong declared payload
    for id_type in (0x02, 0x03):  # unassigned identity types
        with pytest.raises(m.BadField):
            m.decode(bytes((0x0A, 0, 1, id_type)))
    with pytest.raises(m.BadField):
        m.decode(b"\x05\x00\x01\xff")  # TA adjust out of range


_CAPS = m.CapabilityVector(bytes(range(32)))

#: One golden message per layout: its payload fields as (name, size) in
#: wire order, and (offset, bytes) that make one field's value refused,
#: or None where every value of every field is valid.
_LAYOUTS = [
    pytest.param(m.RandomAccessResponse(m.Rnti(0x4A), 6, m.UlGrant(4, 18, 5)),
                 (("rnti", 2), ("ta", 2), ("subframe_offset", 1),
                  ("rb_alloc", 2), ("mcs", 1)), (2, b"\xff\xff"), id="rar"),
    pytest.param(m.DciFormat0(m.Rnti(0x4A), 4, 18, 5),
                 (("rnti", 2), ("subframe_offset", 1), ("rb_alloc", 2),
                  ("mcs", 1)), (5, b"\x20"), id="dci0"),
    pytest.param(m.MacTaCommand(-3), (("adjust", 1),), (0, b"\x40"),
                 id="mac_ta"),
    pytest.param(m.RrcConnectionRequest(m.Tmsi(0xA0000001), 3, True),
                 (("tmsi", 4), ("establishment_cause", 1), ("is_random", 1)),
                 (5, b"\x02"), id="rrc_request"),
    pytest.param(m.RrcConnectionSetup(7), (("config_id", 1),), None,
                 id="rrc_setup"),
    pytest.param(m.AttachRequest(m.Tmsi(0xA0000001), _CAPS),
                 (("id_kind", 1), ("tmsi", 4), ("capabilities", 32)),
                 (0, b"\x02"), id="attach_tmsi"),
    pytest.param(m.AttachRequest(m.Imsi("001010000000001"), _CAPS),
                 (("id_kind", 1), ("imsi", 8), ("capabilities", 32)),
                 (8, b"\x10"), id="attach_imsi"),
    pytest.param(m.ServiceRequest(m.Tmsi(0xA0000001)), (("tmsi", 4),), None,
                 id="service_request"),
    pytest.param(m.IdentityRequest(m.IdType.IMSI), (("id_type", 1),),
                 (0, b"\x02"), id="identity_request"),
    pytest.param(m.IdentityResponse(m.Imsi("001010000000001")),
                 (("imsi", 8),), (0, b"\x0a"), id="identity_response"),
    pytest.param(m.Ack(3), (("harq_id", 1),), (0, b"\x10"), id="ack"),
    pytest.param(m.ServiceReject(9), (("cause", 1),), None,
                 id="service_reject"),
]


def _framed(tag, payload):
    """``payload`` under ``tag`` with a header that declares all of it."""
    return bytes((tag,)) + len(payload).to_bytes(2, "big") + payload


@pytest.mark.parametrize("msg, fields, bad", _LAYOUTS)
def test_a_payload_cut_inside_a_field_names_that_field(msg, fields, bad):
    raw = m.encode(msg)
    tag, payload = raw[0], raw[3:]
    assert sum(size for _, size in fields) == len(payload)
    start = 0
    for name, size in fields:
        for cut in (start, start + size - 1):
            with pytest.raises(m.Truncated) as exc:
                m.decode(_framed(tag, payload[:cut]))
            assert exc.value.missing == name
        start += size


@pytest.mark.parametrize("msg, fields, bad", _LAYOUTS)
def test_a_bad_field_beats_an_unread_byte(msg, fields, bad):
    raw = m.encode(msg)
    tag, payload = raw[0], raw[3:]
    with pytest.raises(m.BadLength):
        m.decode(_framed(tag, payload + b"\x00"))
    if bad is None:
        return
    offset, value = bad
    spoilt = payload[:offset] + value + payload[offset + len(value):]
    with pytest.raises(m.BadField):
        m.decode(_framed(tag, spoilt))
    with pytest.raises(m.BadField):
        m.decode(_framed(tag, spoilt + b"\x00"))


def _records_in(msg):
    """``msg`` and every record among its field values, nested ones too."""
    yield msg
    for field in dataclasses.fields(msg):
        value = getattr(msg, field.name)
        if dataclasses.is_dataclass(value):
            yield from _records_in(value)


@pytest.mark.parametrize("msg, fields, bad", _LAYOUTS)
def test_message_records_are_slotted_and_still_frozen(msg, fields, bad):
    # One record per uplink round is kept for the whole run: no __dict__.
    for record in _records_in(msg):
        assert not hasattr(record, "__dict__"), type(record).__name__
        name = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))
    back = m.decode(m.encode(msg))
    assert back == msg and hash(back) == hash(msg)


def test_the_layouts_cover_every_record_type():
    seen = {type(record) for param in _LAYOUTS
            for record in _records_in(param.values[0])}
    assert seen == {value for value in vars(m).values()
                    if dataclasses.is_dataclass(value)}


def test_encode_rejects_out_of_range_fields():
    with pytest.raises(ValueError):
        m.MacTaCommand(33)
    with pytest.raises(ValueError):
        m.RandomAccessResponse(m.Rnti(1), 1283, m.UlGrant(0, 0, 0))
    with pytest.raises(ValueError):
        m.Imsi("12345")
    for digits in ("\u0661" * 15, "\u00b2" * 15):  # Arabic-Indic one, "²"
        with pytest.raises(ValueError):
            m.Imsi(digits)
    with pytest.raises(ValueError):
        m.CapabilityVector(b"\x00" * 31)


_DCI0_FIELDS = ("subframe_offset", "rb_alloc", "mcs")


@pytest.mark.parametrize("field, value", [
    (f, v) for f, hi in zip(_DCI0_FIELDS, (255, 0xFFFF, 31))
    for v in (-1, hi + 1, 4.0, True, "4", None)])
def test_dci_format0_builder_refuses_what_the_constructor_refuses(field,
                                                                  value):
    args = dict(rnti=m.Rnti(0x44), subframe_offset=4, rb_alloc=7, mcs=5)
    args[field] = value
    with pytest.raises(ValueError) as ctor:
        m.DciFormat0(**args)
    with pytest.raises(ValueError) as fast:
        m.dci_format0(**args)
    assert str(fast.value) == str(ctor.value)


@pytest.mark.parametrize("args", [
    (0, 0, 0), (255, 0xFFFF, 31), (4, 7, 5), (m.IdType.IMSI, 7, 5)])
def test_dci_format0_builder_matches_the_constructor(args):
    fast, built = (make(m.Rnti(0x44), *args)
                   for make in (m.dci_format0, m.DciFormat0))
    assert type(fast) is m.DciFormat0
    assert fast == built and hash(fast) == hash(built)
    assert repr(fast) == repr(built)
    assert m.encode(fast) == m.encode(built)
    assert not hasattr(fast, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        fast.mcs = built.mcs


# --- helpers ----------------------------------------------------------------

def test_rnti_of_rar():
    good = m.RandomAccessResponse(m.Rnti(0x004A), 6, m.UlGrant(4, 1, 0))
    assert m.rnti_of_rar(good) == m.Rnti(0x004A)
    reserved = m.RandomAccessResponse(m.Rnti(0xFFF4), 6, m.UlGrant(4, 1, 0))
    with pytest.raises(ValueError):
        m.rnti_of_rar(reserved)
    with pytest.raises(TypeError):
        m.rnti_of_rar(m.Ack(0))


def test_capability_hamming():
    a = m.CapabilityVector(bytes(32))
    flipped = bytearray(32)
    flipped[0] = 0b1011_0001
    flipped[31] = 0b0000_0010
    b = m.CapabilityVector(bytes(flipped))
    assert a.hamming(b) == 5
    assert b.hamming(b) == 0
