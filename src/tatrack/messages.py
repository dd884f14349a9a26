"""Byte-level codecs for the sniffable control-plane messages.

The wire format is deliberately simple and documented here rather than
mimicking 3GPP ASN.1: byte 0 is the variant tag, bytes 1-2 a big-endian
payload length, then fixed-layout big-endian fields in declaration order.
What matters downstream is the message semantics and that the encoding is
bit-exact and total to decode.

``_CODECS`` holds each message type's layout, which ``encode`` and
``decode`` both read; a tag it does not list decodes to ``UnknownTag``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from functools import partial
from itertools import accumulate
from typing import Callable, NamedTuple, Union

from .timebase import TA_MAX

CAPABILITY_BYTES = 32  # 256-bit capability vector


class DecodeError(ValueError):
    """Base for everything decode() can signal."""


class UnknownTag(DecodeError):
    def __init__(self, tag: int):
        super().__init__(f"unknown message tag 0x{tag:02X}")
        self.tag = tag


class Truncated(DecodeError):
    def __init__(self, missing: str):
        super().__init__(f"input truncated: missing {missing}")
        self.missing = missing


class BadLength(DecodeError):
    def __init__(self, detail: str):
        super().__init__(f"length mismatch: {detail}")


class BadField(DecodeError):
    def __init__(self, detail: str):
        super().__init__(f"bad field value: {detail}")


def _check_range(name: str, value: int, lo: int, hi: int) -> None:
    if type(value) is int and lo <= value <= hi:
        return
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if not lo <= value <= hi:
        raise ValueError(f"{name}={value} outside [{lo}, {hi}]")


@dataclass(frozen=True, slots=True)
class Rnti:
    """16-bit radio identity. Values above 0xFFF3 are reserved."""

    value: int

    DEDICATED_MIN = 0x0001
    DEDICATED_MAX = 0xFFF3

    def __post_init__(self):
        _check_range("rnti", self.value, 0, 0xFFFF)

    @property
    def dedicated(self) -> bool:
        return self.DEDICATED_MIN <= self.value <= self.DEDICATED_MAX


@dataclass(frozen=True, slots=True)
class Tmsi:
    value: int

    def __post_init__(self):
        _check_range("tmsi", self.value, 0, 0xFFFFFFFF)


@dataclass(frozen=True, slots=True)
class Imsi:
    digits: str

    def __post_init__(self):
        if not (isinstance(self.digits, str) and len(self.digits) == 15
                and self.digits.isascii()
                and self.digits.isdigit()):  # isdigit alone takes "١", "²"
            raise ValueError(f"IMSI must be 15 decimal digits: {self.digits!r}")


@dataclass(frozen=True, slots=True)
class CapabilityVector:
    """Fixed 256-bit feature vector sent in plain text during attach."""

    bits: bytes

    def __post_init__(self):
        if len(self.bits) != CAPABILITY_BYTES:
            raise ValueError(f"capability vector must be {CAPABILITY_BYTES} "
                             f"bytes, got {len(self.bits)}")

    def as_int(self) -> int:
        """The 256 bits as one unsigned integer."""
        return int.from_bytes(self.bits, "big")

    def hamming(self, other: "CapabilityVector") -> int:
        return (self.as_int() ^ other.as_int()).bit_count()

    @classmethod
    def from_hex(cls, text: str) -> "CapabilityVector":
        return cls(bytes.fromhex(text))


class IdType(IntEnum):
    IMSI = 0x01


# --- message variants, in tag order ----------------------------------------


@dataclass(frozen=True, slots=True)
class UlGrant:
    """Uplink allocation: transmit at grant subframe + offset on rb_alloc."""

    subframe_offset: int
    rb_alloc: int
    mcs: int

    def __post_init__(self):
        _check_range("subframe_offset", self.subframe_offset, 0, 255)
        _check_range("rb_alloc", self.rb_alloc, 0, 0xFFFF)
        _check_range("mcs", self.mcs, 0, 31)


@dataclass(frozen=True, slots=True)
class RandomAccessResponse:
    rnti: Rnti
    ta: int
    grant: UlGrant

    def __post_init__(self):
        _check_range("ta", self.ta, 0, TA_MAX)


@dataclass(frozen=True, slots=True)
class DciFormat0:
    """Uplink grant: the UE transmits subframe_offset later on rb_alloc."""

    rnti: Rnti
    subframe_offset: int
    rb_alloc: int
    mcs: int

    def __post_init__(self):
        _check_range("subframe_offset", self.subframe_offset, 0, 255)
        _check_range("rb_alloc", self.rb_alloc, 0, 0xFFFF)
        _check_range("mcs", self.mcs, 0, 31)


#: The ``__set__`` of each ``DciFormat0`` slot's member descriptor.
_set_rnti, _set_offset, _set_rb_alloc, _set_mcs = (
    DciFormat0.__dict__[name].__set__ for name in DciFormat0.__slots__)


def dci_format0(rnti: Rnti, subframe_offset: int, rb_alloc: int,
                mcs: int) -> DciFormat0:
    """``DciFormat0(rnti, subframe_offset, rb_alloc, mcs)``, built cheaply.

    Fields that are plain ints in range go straight into the record's
    slots through their member descriptors, without the dataclass
    ``__init__``. Any other value goes through the constructor, so it is
    refused, or accepted, exactly as there.
    """
    if not (type(subframe_offset) is int and 0 <= subframe_offset <= 255
            and type(rb_alloc) is int and 0 <= rb_alloc <= 0xFFFF
            and type(mcs) is int and 0 <= mcs <= 31):
        return DciFormat0(rnti, subframe_offset, rb_alloc, mcs)
    msg = object.__new__(DciFormat0)
    _set_rnti(msg, rnti)
    _set_offset(msg, subframe_offset)
    _set_rb_alloc(msg, rb_alloc)
    _set_mcs(msg, mcs)
    return msg


@dataclass(frozen=True, slots=True)
class MacTaCommand:
    """Incremental timing-advance adjustment, -31 to +32 steps."""

    adjust: int

    def __post_init__(self):
        _check_range("adjust", self.adjust, -31, 32)


@dataclass(frozen=True, slots=True)
class RrcConnectionRequest:
    tmsi: Tmsi
    establishment_cause: int
    is_random: bool = False  # True when the UE sent a random fill-in value

    def __post_init__(self):
        _check_range("establishment_cause", self.establishment_cause, 0, 255)


@dataclass(frozen=True, slots=True)
class RrcConnectionSetup:
    config_id: int

    def __post_init__(self):
        _check_range("config_id", self.config_id, 0, 255)


@dataclass(frozen=True, slots=True)
class AttachRequest:
    id: Union[Tmsi, Imsi]
    capabilities: CapabilityVector


@dataclass(frozen=True, slots=True)
class ServiceRequest:
    tmsi: Tmsi


@dataclass(frozen=True, slots=True)
class IdentityRequest:
    id_type: IdType


@dataclass(frozen=True, slots=True)
class IdentityResponse:
    imsi: Imsi


@dataclass(frozen=True, slots=True)
class Ack:
    harq_id: int

    def __post_init__(self):
        _check_range("harq_id", self.harq_id, 0, 15)


@dataclass(frozen=True, slots=True)
class ServiceReject:
    """NAS reject; cause 9 sends the UE back to a full plaintext attach."""

    cause: int

    def __post_init__(self):
        _check_range("cause", self.cause, 0, 255)


Message = Union[
    RandomAccessResponse, DciFormat0, MacTaCommand, RrcConnectionRequest,
    RrcConnectionSetup, AttachRequest, ServiceRequest, IdentityRequest,
    IdentityResponse, Ack, ServiceReject,
]


def _pack_imsi(imsi: Imsi) -> bytes:
    # Packed BCD, two digits per byte, 0xF filler nibble at the end.
    return bytes.fromhex(imsi.digits + "f")


def _unpack_imsi(raw: bytes) -> Imsi:
    digits = raw.hex()
    if digits[15] != "f":
        raise ValueError("IMSI filler nibble missing")
    return Imsi(digits[:15])  # Imsi refuses a nibble above 9


def _flag(byte: int) -> bool:
    if byte > 1:
        raise ValueError(f"is_random flag byte 0x{byte:02X}")
    return bool(byte)


_HEADER = struct.Struct(">BH")  # tag, payload length


class _Layout(NamedTuple):
    """One message type's whole encoding: tag, length and payload."""

    tag: int
    struct: struct.Struct  # the tag, the payload length, then each field
    fields: tuple[tuple[str, int], ...]  # (name, payload offset past it)
    values: Callable[..., tuple]   # a message's payload field values
    build: Callable[..., Message]  # the message from those values
    pack: Callable[..., bytes]  # ``struct.pack`` with tag and length bound


def _layout(tag: int, spec: str, values, build) -> _Layout:
    """A layout from ``spec``: ``name:code`` per payload field in wire
    order, each code a ``struct`` format character."""
    names, codes = zip(*(field.split(":") for field in spec.split()))
    ends = tuple(accumulate(struct.calcsize(">" + code) for code in codes))
    fmt = struct.Struct(">BH" + "".join(codes))
    return _Layout(tag, fmt, tuple(zip(names, ends)), values, build,
                   partial(fmt.pack, tag, ends[-1]))


#: Each message type's layout. The attach request has two, indexed by
#: its first payload byte, the identity kind: a TMSI or an IMSI.
_CODECS = {
    RandomAccessResponse: _layout(
        0x02, "rnti:H ta:H subframe_offset:B rb_alloc:H mcs:B",
        lambda m: (m.rnti.value, m.ta, m.grant.subframe_offset,
                   m.grant.rb_alloc, m.grant.mcs),
        lambda rnti, ta, offset, rb_alloc, mcs: RandomAccessResponse(
            Rnti(rnti), ta, UlGrant(offset, rb_alloc, mcs))),
    DciFormat0: _layout(
        0x03, "rnti:H subframe_offset:B rb_alloc:H mcs:B",
        lambda m: (m.rnti.value, m.subframe_offset, m.rb_alloc, m.mcs),
        lambda rnti, offset, rb_alloc, mcs: dci_format0(
            Rnti(rnti), offset, rb_alloc, mcs)),
    MacTaCommand: _layout(
        0x05, "adjust:B", lambda m: (m.adjust + 31,),
        lambda biased: MacTaCommand(biased - 31)),
    RrcConnectionRequest: _layout(
        0x06, "tmsi:I establishment_cause:B is_random:B",
        lambda m: (m.tmsi.value, m.establishment_cause, m.is_random),
        lambda tmsi, cause, flag: RrcConnectionRequest(
            Tmsi(tmsi), cause, _flag(flag))),
    RrcConnectionSetup: _layout(
        0x07, "config_id:B", lambda m: (m.config_id,), RrcConnectionSetup),
    AttachRequest: (
        _layout(0x08, "id_kind:B tmsi:I capabilities:32s",
                lambda m: (0x00, m.id.value, m.capabilities.bits),
                lambda _, tmsi, caps: AttachRequest(
                    Tmsi(tmsi), CapabilityVector(caps))),
        _layout(0x08, "id_kind:B imsi:8s capabilities:32s",
                lambda m: (0x01, _pack_imsi(m.id), m.capabilities.bits),
                lambda _, imsi, caps: AttachRequest(
                    _unpack_imsi(imsi), CapabilityVector(caps))),
    ),
    ServiceRequest: _layout(
        0x09, "tmsi:I", lambda m: (m.tmsi.value,),
        lambda tmsi: ServiceRequest(Tmsi(tmsi))),
    IdentityRequest: _layout(
        0x0A, "id_type:B", lambda m: (m.id_type,),
        lambda id_type: IdentityRequest(IdType(id_type))),
    IdentityResponse: _layout(
        0x0B, "imsi:8s", lambda m: (_pack_imsi(m.imsi),),
        lambda imsi: IdentityResponse(_unpack_imsi(imsi))),
    Ack: _layout(0x0C, "harq_id:B", lambda m: (m.harq_id,), Ack),
    ServiceReject: _layout(
        0x0D, "cause:B", lambda m: (m.cause,), ServiceReject),
}

#: The same layouts by tag.
_BY_TAG = {(layout[0] if type(layout) is tuple else layout).tag: layout
           for layout in _CODECS.values()}


def encode(msg: Message) -> bytes:
    """Serialize to tag + 16-bit length + fixed-layout payload."""
    layout = _CODECS.get(type(msg))
    if layout is None:
        raise TypeError(f"not a message: {msg!r}")
    if type(layout) is tuple:  # the attach request: one per identity kind
        layout = layout[type(msg.id) is Imsi]
    return layout.pack(*layout.values(msg))


def decode(data: bytes) -> Message:
    """Total inverse of encode: returns a Message or raises a DecodeError.

    A field the payload cuts short is ``Truncated``, a value the message
    refuses is a ``BadField``, and only then are unread payload bytes a
    ``BadLength``.
    """
    if len(data) < _HEADER.size:
        raise Truncated("header")
    tag, length = _HEADER.unpack_from(data)
    excess = len(data) - _HEADER.size - length
    if excess < 0:
        raise Truncated("payload")
    if excess:
        raise BadLength(f"{excess} trailing bytes")
    layout = _BY_TAG.get(tag)
    if layout is None:
        raise UnknownTag(tag)
    if type(layout) is tuple:  # the attach request: pick by identity kind
        if length == 0:
            raise Truncated(layout[0].fields[0][0])
        kind = data[_HEADER.size]
        if kind >= len(layout):
            raise BadField(f"attach id kind 0x{kind:02X}")
        layout = layout[kind]
    size = layout.struct.size - _HEADER.size
    if length < size:
        raise Truncated(next(name for name, end in layout.fields
                             if end > length))
    try:
        msg = layout.build(*layout.struct.unpack_from(data)[2:])
    except ValueError as exc:  # a value the message or a field refuses
        raise BadField(str(exc)) from None
    if length > size:
        raise BadLength(f"{length - size} unread payload bytes")
    return msg


def rnti_of_rar(msg: RandomAccessResponse) -> Rnti:
    """The RNTI a RAR assigns, rejecting reserved values."""
    if not isinstance(msg, RandomAccessResponse):
        raise TypeError(f"expected RandomAccessResponse, got "
                        f"{type(msg).__name__}")
    if not msg.rnti.dedicated:
        raise ValueError(f"rnti 0x{msg.rnti.value:04X} outside dedicated range")
    return msg.rnti
