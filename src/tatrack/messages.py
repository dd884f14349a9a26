"""Byte-level codecs for the sniffable control-plane messages.

The wire format is deliberately simple and documented here rather than
mimicking 3GPP ASN.1: byte 0 is the variant tag, bytes 1-2 a big-endian
payload length, then fixed-layout big-endian fields in declaration order.
What matters downstream is the message semantics and that the encoding is
bit-exact and total to decode.

Tag table (0x01 and 0x04 are unassigned and decode to ``UnknownTag``):
    0x02 RandomAccessResponse   0x09 ServiceRequest
    0x03 DciFormat0             0x0A IdentityRequest
    0x05 MacTaCommand           0x0B IdentityResponse
    0x06 RrcConnectionRequest   0x0C Ack
    0x07 RrcConnectionSetup     0x0D ServiceReject
    0x08 AttachRequest
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Union

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Tmsi:
    value: int

    def __post_init__(self):
        _check_range("tmsi", self.value, 0, 0xFFFFFFFF)


@dataclass(frozen=True)
class Imsi:
    digits: str

    def __post_init__(self):
        if not (isinstance(self.digits, str) and len(self.digits) == 15
                and self.digits.isascii()
                and self.digits.isdigit()):  # isdigit alone takes "١", "²"
            raise ValueError(f"IMSI must be 15 decimal digits: {self.digits!r}")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class UlGrant:
    """Uplink allocation: transmit at grant subframe + offset on rb_alloc."""

    subframe_offset: int
    rb_alloc: int
    mcs: int

    def __post_init__(self):
        _check_range("subframe_offset", self.subframe_offset, 0, 255)
        _check_range("rb_alloc", self.rb_alloc, 0, 0xFFFF)
        _check_range("mcs", self.mcs, 0, 31)


@dataclass(frozen=True)
class RandomAccessResponse:
    rnti: Rnti
    ta: int
    grant: UlGrant

    def __post_init__(self):
        _check_range("ta", self.ta, 0, TA_MAX)


@dataclass(frozen=True)
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


def dci_format0(rnti: Rnti, subframe_offset: int, rb_alloc: int,
                mcs: int) -> DciFormat0:
    """``DciFormat0(rnti, subframe_offset, rb_alloc, mcs)``, built cheaply.

    Fields that are plain ints in range are stored without the
    frozen-dataclass ``__init__``. Any other value goes through the
    constructor, so it is refused, or accepted, exactly as there.
    """
    if not (type(subframe_offset) is int and 0 <= subframe_offset <= 255
            and type(rb_alloc) is int and 0 <= rb_alloc <= 0xFFFF
            and type(mcs) is int and 0 <= mcs <= 31):
        return DciFormat0(rnti, subframe_offset, rb_alloc, mcs)
    msg = object.__new__(DciFormat0)
    fields = msg.__dict__
    fields["rnti"] = rnti
    fields["subframe_offset"] = subframe_offset
    fields["rb_alloc"] = rb_alloc
    fields["mcs"] = mcs
    return msg


@dataclass(frozen=True)
class MacTaCommand:
    """Incremental timing-advance adjustment, -31 to +32 steps."""

    adjust: int

    def __post_init__(self):
        _check_range("adjust", self.adjust, -31, 32)


@dataclass(frozen=True)
class RrcConnectionRequest:
    tmsi: Tmsi
    establishment_cause: int
    is_random: bool = False  # True when the UE sent a random fill-in value

    def __post_init__(self):
        _check_range("establishment_cause", self.establishment_cause, 0, 255)


@dataclass(frozen=True)
class RrcConnectionSetup:
    config_id: int

    def __post_init__(self):
        _check_range("config_id", self.config_id, 0, 255)


@dataclass(frozen=True)
class AttachRequest:
    id: Union[Tmsi, Imsi]
    capabilities: CapabilityVector


@dataclass(frozen=True)
class ServiceRequest:
    tmsi: Tmsi


@dataclass(frozen=True)
class IdentityRequest:
    id_type: IdType


@dataclass(frozen=True)
class IdentityResponse:
    imsi: Imsi


@dataclass(frozen=True)
class Ack:
    harq_id: int

    def __post_init__(self):
        _check_range("harq_id", self.harq_id, 0, 15)


@dataclass(frozen=True)
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

_ID_KIND_TMSI = 0x00
_ID_KIND_IMSI = 0x01


def _pack_imsi(imsi: Imsi) -> bytes:
    # Packed BCD, two digits per byte, 0xF filler nibble at the end.
    nibbles = [int(d) for d in imsi.digits] + [0xF]
    return bytes((nibbles[i] << 4) | nibbles[i + 1]
                 for i in range(0, 16, 2))


def _unpack_imsi(raw: bytes) -> Imsi:
    nibbles = []
    for byte in raw:
        nibbles.append(byte >> 4)
        nibbles.append(byte & 0xF)
    if nibbles[15] != 0xF:
        raise BadField("IMSI filler nibble missing")
    digits = nibbles[:15]
    if any(d > 9 for d in digits):
        raise BadField("IMSI contains non-decimal nibble")
    return Imsi("".join(str(d) for d in digits))


def _pack_attach(msg: AttachRequest) -> bytes:
    if isinstance(msg.id, Tmsi):
        id_part = struct.pack(">BI", _ID_KIND_TMSI, msg.id.value)
    else:
        id_part = struct.pack(">B", _ID_KIND_IMSI) + _pack_imsi(msg.id)
    return id_part + msg.capabilities.bits


#: Each message type's tag and the packer of its payload.
_CODECS = {
    RandomAccessResponse: (0x02, lambda m: struct.pack(
        ">HHBHB", m.rnti.value, m.ta, m.grant.subframe_offset,
        m.grant.rb_alloc, m.grant.mcs)),
    DciFormat0: (0x03, lambda m: struct.pack(
        ">HBHB", m.rnti.value, m.subframe_offset, m.rb_alloc, m.mcs)),
    MacTaCommand: (0x05, lambda m: struct.pack(">B", m.adjust + 31)),
    RrcConnectionRequest: (0x06, lambda m: struct.pack(
        ">IBB", m.tmsi.value, m.establishment_cause, int(m.is_random))),
    RrcConnectionSetup: (0x07, lambda m: struct.pack(">B", m.config_id)),
    AttachRequest: (0x08, _pack_attach),
    ServiceRequest: (0x09, lambda m: struct.pack(">I", m.tmsi.value)),
    IdentityRequest: (0x0A, lambda m: struct.pack(">B", m.id_type)),
    IdentityResponse: (0x0B, lambda m: _pack_imsi(m.imsi)),
    Ack: (0x0C, lambda m: struct.pack(">B", m.harq_id)),
    ServiceReject: (0x0D, lambda m: struct.pack(">B", m.cause)),
}


def encode(msg: Message) -> bytes:
    """Serialize to tag + 16-bit length + fixed-layout payload."""
    try:
        tag, pack = _CODECS[type(msg)]
    except KeyError:
        raise TypeError(f"not a message: {msg!r}") from None
    payload = pack(msg)
    return struct.pack(">BH", tag, len(payload)) + payload


class _Cursor:
    """Sequential field reader that names what was missing on truncation."""

    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, n: int, name: str) -> bytes:
        if self.pos + n > len(self.raw):
            raise Truncated(name)
        chunk = self.raw[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self, name: str) -> int:
        return self.take(1, name)[0]

    def u16(self, name: str) -> int:
        return struct.unpack(">H", self.take(2, name))[0]

    def u32(self, name: str) -> int:
        return struct.unpack(">I", self.take(4, name))[0]

    def done(self) -> None:
        if self.pos != len(self.raw):
            raise BadLength(f"{len(self.raw) - self.pos} unread payload bytes")


def _decode_payload(tag: int, cur: _Cursor) -> Message:
    try:
        if tag == 0x02:
            rnti = Rnti(cur.u16("rnti"))
            ta = cur.u16("ta")
            grant = UlGrant(cur.u8("subframe_offset"), cur.u16("rb_alloc"),
                            cur.u8("mcs"))
            return RandomAccessResponse(rnti, ta, grant)
        if tag == 0x03:
            return DciFormat0(Rnti(cur.u16("rnti")), cur.u8("subframe_offset"),
                              cur.u16("rb_alloc"), cur.u8("mcs"))
        if tag == 0x05:
            return MacTaCommand(cur.u8("adjust") - 31)
        if tag == 0x06:
            tmsi = Tmsi(cur.u32("tmsi"))
            cause = cur.u8("establishment_cause")
            flag = cur.u8("is_random")
            if flag > 1:
                raise BadField(f"is_random flag byte 0x{flag:02X}")
            return RrcConnectionRequest(tmsi, cause, bool(flag))
        if tag == 0x07:
            return RrcConnectionSetup(cur.u8("config_id"))
        if tag == 0x08:
            kind = cur.u8("id_kind")
            if kind == _ID_KIND_TMSI:
                ident: Union[Tmsi, Imsi] = Tmsi(cur.u32("tmsi"))
            elif kind == _ID_KIND_IMSI:
                ident = _unpack_imsi(cur.take(8, "imsi"))
            else:
                raise BadField(f"attach id kind 0x{kind:02X}")
            caps = CapabilityVector(cur.take(CAPABILITY_BYTES, "capabilities"))
            return AttachRequest(ident, caps)
        if tag == 0x09:
            return ServiceRequest(Tmsi(cur.u32("tmsi")))
        if tag == 0x0A:
            raw = cur.u8("id_type")
            try:
                return IdentityRequest(IdType(raw))
            except ValueError:
                raise BadField(f"identity type 0x{raw:02X}") from None
        if tag == 0x0B:
            return IdentityResponse(_unpack_imsi(cur.take(8, "imsi")))
        if tag == 0x0C:
            return Ack(cur.u8("harq_id"))
        if tag == 0x0D:
            return ServiceReject(cur.u8("cause"))
    except DecodeError:
        raise
    except ValueError as exc:
        # Range violations from the dataclass validators.
        raise BadField(str(exc)) from None
    raise UnknownTag(tag)


def decode(data: bytes) -> Message:
    """Total inverse of encode: returns a Message or raises a DecodeError."""
    if len(data) < 3:
        raise Truncated("header")
    tag, length = struct.unpack(">BH", data[:3])
    payload = data[3:]
    if len(payload) < length:
        raise Truncated("payload")
    if len(payload) > length:
        raise BadLength(f"{len(payload) - length} trailing bytes")
    cur = _Cursor(payload)
    msg = _decode_payload(tag, cur)
    cur.done()
    return msg


def rnti_of_rar(msg: RandomAccessResponse) -> Rnti:
    """The RNTI a RAR assigns, rejecting reserved values."""
    if not isinstance(msg, RandomAccessResponse):
        raise TypeError(f"expected RandomAccessResponse, got "
                        f"{type(msg).__name__}")
    if not msg.rnti.dedicated:
        raise ValueError(f"rnti 0x{msg.rnti.value:04X} outside dedicated range")
    return msg.rnti
