"""RFC 5905 packet codec."""

import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ntp.constants import LeapIndicator, Mode, NTP_HEADER_LEN, NTP_UNIX_EPOCH_DELTA
from repro.ntp.packet import NtpPacket


def test_encode_length():
    assert len(NtpPacket().encode()) == NTP_HEADER_LEN


def test_sntp_request_shape():
    p = NtpPacket.sntp_request(1000.0)
    assert p.mode == Mode.CLIENT
    assert p.stratum == 0
    assert p.poll == 0
    assert p.precision == 0
    assert p.transmit_ts == 1000.0
    assert p.origin_ts is None
    assert p.looks_like_sntp_request()


def test_ntp_request_not_sntp_shaped():
    p = NtpPacket.ntp_request(1000.0)
    assert not p.looks_like_sntp_request()


def test_roundtrip_full_packet():
    p = NtpPacket(
        leap=LeapIndicator.LAST_MINUTE_61,
        version=4,
        mode=Mode.SERVER,
        stratum=2,
        poll=6,
        precision=-20,
        root_delay=0.015,
        root_dispersion=0.030,
        ref_id=b"GPS\x00",
        reference_ts=999.0,
        origin_ts=1000.0,
        receive_ts=1000.5,
        transmit_ts=1000.6,
    )
    q = NtpPacket.decode(p.encode(), pivot_unix=1000.0)
    assert q.leap == p.leap
    assert q.version == p.version
    assert q.mode == p.mode
    assert q.stratum == p.stratum
    assert q.poll == p.poll
    assert q.precision == p.precision
    assert q.root_delay == pytest.approx(p.root_delay, abs=1e-4)
    assert q.root_dispersion == pytest.approx(p.root_dispersion, abs=1e-4)
    assert q.ref_id == p.ref_id
    assert q.origin_ts == pytest.approx(1000.0, abs=1e-6)
    assert q.receive_ts == pytest.approx(1000.5, abs=1e-6)
    assert q.transmit_ts == pytest.approx(1000.6, abs=1e-6)


def test_none_timestamps_roundtrip_as_none():
    p = NtpPacket(transmit_ts=5.0)
    q = NtpPacket.decode(p.encode(), pivot_unix=5.0)
    assert q.origin_ts is None
    assert q.receive_ts is None
    assert q.reference_ts is None
    assert q.transmit_ts is not None


def test_decode_too_short():
    with pytest.raises(ValueError):
        NtpPacket.decode(b"\x00" * 47)


def test_decode_ignores_extensions():
    p = NtpPacket.sntp_request(1.0)
    padded = p.encode() + b"\xff" * 20
    q = NtpPacket.decode(padded, pivot_unix=1.0)
    assert q.looks_like_sntp_request()


def test_kiss_of_death():
    p = NtpPacket(mode=Mode.SERVER, stratum=0)
    assert p.is_kiss_of_death()
    assert not NtpPacket(mode=Mode.SERVER, stratum=2).is_kiss_of_death()


def test_invalid_fields_rejected():
    with pytest.raises(ValueError):
        NtpPacket(stratum=300)
    with pytest.raises(ValueError):
        NtpPacket(ref_id=b"too long")
    with pytest.raises(ValueError):
        NtpPacket(poll=200)
    with pytest.raises(ValueError):
        NtpPacket(version=0)


@given(
    leap=st.sampled_from(list(LeapIndicator)),
    version=st.integers(1, 7),
    mode=st.sampled_from(list(Mode)),
    stratum=st.integers(0, 255),
    poll=st.integers(-128, 127),
    precision=st.integers(-128, 127),
)
def test_first_four_bytes_roundtrip_property(leap, version, mode, stratum, poll, precision):
    p = NtpPacket(
        leap=leap, version=version, mode=mode, stratum=stratum,
        poll=poll, precision=precision,
    )
    q = NtpPacket.decode(p.encode())
    assert (q.leap, q.version, q.mode, q.stratum, q.poll, q.precision) == (
        leap, version, mode, stratum, poll, precision,
    )


# -- reference codec -------------------------------------------------------
#
# A field-by-field encoder and decoder, one ``struct.pack`` per field, kept
# here as the specification the single-``Struct`` codec must match bit for
# bit.

_TWO32 = 2**32
_TWO16 = 2**16
_ZERO = b"\x00" * 8


def _ref_encode_timestamp(unix_seconds):
    ntp = unix_seconds + NTP_UNIX_EPOCH_DELTA
    secs = int(ntp // 1)
    frac = int(round((ntp - secs) * _TWO32))
    if frac == _TWO32:
        secs += 1
        frac = 0
    return struct.pack("!II", secs % _TWO32, frac)


def _ref_decode_timestamp(data, pivot_unix=0.0):
    secs, frac = struct.unpack("!II", data)
    unix = (secs + frac / _TWO32) - NTP_UNIX_EPOCH_DELTA
    if pivot_unix:
        while unix < pivot_unix - _TWO32 / 2:
            unix += _TWO32
        while unix > pivot_unix + _TWO32 / 2:
            unix -= _TWO32
    return unix


def _ref_encode_short(seconds):
    if seconds < 0:
        raise ValueError("short format encodes non-negative durations")
    value = int(round(seconds * _TWO16))
    if value >= _TWO32:
        value = _TWO32 - 1
    return struct.pack("!I", value)


def _ref_encode(p):
    first = (int(p.leap) & 0x3) << 6 | (int(p.version) & 0x7) << 3 | (int(p.mode) & 0x7)
    ts = [_ZERO if v is None else _ref_encode_timestamp(v)
          for v in (p.reference_ts, p.origin_ts, p.receive_ts, p.transmit_ts)]
    return (
        struct.pack("!BBbb", first, int(p.stratum), int(p.poll), int(p.precision))
        + _ref_encode_short(p.root_delay)
        + _ref_encode_short(p.root_dispersion)
        + p.ref_id
        + b"".join(ts)
    )


def _ref_decode(data, pivot_unix=0.0):
    if len(data) < NTP_HEADER_LEN:
        raise ValueError(f"NTP packet too short: {len(data)} bytes")
    first, stratum, poll, precision = struct.unpack("!BBbb", data[:4])

    def ts(chunk):
        return None if chunk == _ZERO else _ref_decode_timestamp(chunk, pivot_unix)

    return NtpPacket(
        leap=LeapIndicator((first >> 6) & 0x3),
        version=(first >> 3) & 0x7,
        mode=Mode(first & 0x7),
        stratum=stratum,
        poll=poll,
        precision=precision,
        root_delay=struct.unpack("!I", data[4:8])[0] / _TWO16,
        root_dispersion=struct.unpack("!I", data[8:12])[0] / _TWO16,
        ref_id=bytes(data[12:16]),
        reference_ts=ts(data[16:24]),
        origin_ts=ts(data[24:32]),
        receive_ts=ts(data[32:40]),
        transmit_ts=ts(data[40:48]),
    )


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _random_timestamp(rng):
    kind = int(rng.integers(6))
    if kind == 0:
        return None
    if kind == 1:  # the simulated epochs: a 2016 instant plus sub-ms noise
        return 1_460_000_000.0 + float(rng.uniform(0.0, 86_400.0))
    if kind == 2:  # anywhere in era 0 and the start of era 1
        return float(rng.uniform(-NTP_UNIX_EPOCH_DELTA, 4_300_000_000.0))
    if kind == 3:  # whole seconds (zero fraction)
        return float(rng.integers(0, 2_000_000_000))
    if kind == 4:  # just below a whole second
        return float(rng.integers(0, 2_000_000_000)) - 2.0**-20
    return float(rng.uniform(-1.0, 1.0))  # near the Unix epoch, both signs


def _random_duration(rng):
    kind = int(rng.integers(4))
    if kind == 0:
        return 0.0
    if kind == 1:
        return float(rng.uniform(0.0, 0.5))
    if kind == 2:
        return float(rng.uniform(0.0, 2.0**-16))  # below one short-format unit
    return float(rng.uniform(60_000.0, 1e7))  # saturates at 2^32 - 1


def _random_packet(rng):
    return NtpPacket(
        leap=_pick(rng, list(LeapIndicator)),
        version=int(rng.integers(1, 8)),
        mode=_pick(rng, list(Mode)),
        stratum=int(rng.integers(0, 256)),
        poll=int(rng.integers(-128, 128)),
        precision=int(rng.integers(-128, 128)),
        root_delay=_random_duration(rng),
        root_dispersion=_random_duration(rng),
        ref_id=rng.bytes(4),
        reference_ts=_random_timestamp(rng),
        origin_ts=_random_timestamp(rng),
        receive_ts=_random_timestamp(rng),
        transmit_ts=_random_timestamp(rng),
    )


def _assert_same_packet(got, want):
    # repr tells -0.0 from 0.0 and an enum member from a plain int.
    assert repr(got) == repr(want)
    assert type(got.leap) is type(want.leap)
    assert type(got.mode) is type(want.mode)


@pytest.mark.parametrize("seed", range(8))
def test_codec_matches_reference_on_random_packets(seed):
    rng = np.random.default_rng(seed)
    for _ in range(250):
        p = _random_packet(rng)
        wire = p.encode()
        assert wire == _ref_encode(p)
        pivot = _pick(rng, [0.0, 1_460_000_000.0, p.transmit_ts or 0.0,
                            float(rng.uniform(-3e9, 6e9))])
        _assert_same_packet(NtpPacket.decode(wire, pivot_unix=pivot),
                            _ref_decode(wire, pivot_unix=pivot))


@pytest.mark.parametrize("seed", range(4))
def test_decode_matches_reference_on_random_bytes(seed):
    rng = np.random.default_rng(1000 + seed)
    for _ in range(250):
        data = rng.bytes(_pick(rng, [48, 48, 60]))
        pivot = _pick(rng, [0.0, float(rng.uniform(-3e9, 6e9))])
        try:
            want = _ref_decode(data, pivot_unix=pivot)
        except ValueError:  # version-0 header
            with pytest.raises(ValueError):
                NtpPacket.decode(data, pivot_unix=pivot)
            continue
        _assert_same_packet(NtpPacket.decode(data, pivot_unix=pivot), want)


def test_codec_fraction_carry_matches_reference():
    # A float Unix time is too coarse near the NTP epoch for the fraction
    # to round up to 2^32, so use an exact rational: NTP time
    # 1 - 2^-33 s scales to 2^32 - 0.5, which rounds (half to even) to
    # 2^32 and must carry into the seconds word.
    t = Fraction(2**33 - 1, 2**33) - NTP_UNIX_EPOCH_DELTA
    p = NtpPacket(transmit_ts=t)
    wire = p.encode()
    assert wire == _ref_encode(p)
    assert wire[40:48] == struct.pack("!II", 1, 0)


@pytest.mark.parametrize(
    "t, pivot, eras",
    [
        (2_300_000_000.0, 2_300_000_000.0, 0),  # past the 2036 wrap: shift up once
        (1_000.0, 1_000.0 + 3 * 2**32, 3),  # shift up three eras
        (2_000_000_000.0, -1_000_000_000.0, -1),  # shift down once
        (1_000.0, 1_000.0 - 2 * 2**32, -2),  # shift down two eras
    ],
)
def test_codec_era_pivot_matches_reference(t, pivot, eras):
    p = NtpPacket(mode=Mode.SERVER, stratum=2, transmit_ts=t, origin_ts=t)
    wire = p.encode()
    got = NtpPacket.decode(wire, pivot_unix=pivot)
    _assert_same_packet(got, _ref_decode(wire, pivot_unix=pivot))
    assert got.transmit_ts == pytest.approx(t + eras * 2**32, abs=1e-6)


def test_codec_short_format_saturation_matches_reference():
    p = NtpPacket(root_delay=1e9, root_dispersion=65_535.999)
    wire = p.encode()
    assert wire == _ref_encode(p)
    assert wire[4:8] == b"\xff\xff\xff\xff"


def test_codec_negative_short_value_rejected():
    for field in ("root_delay", "root_dispersion"):
        p = NtpPacket(**{field: -1e-9})
        with pytest.raises(ValueError):
            _ref_encode(p)
        with pytest.raises(ValueError):
            p.encode()


def test_codec_short_payload_rejected_like_reference():
    data = NtpPacket.sntp_request(1.0).encode()[:47]
    with pytest.raises(ValueError):
        _ref_decode(data)
    with pytest.raises(ValueError, match="too short"):
        NtpPacket.decode(data)


def test_codec_version_zero_header_rejected_like_reference():
    data = bytearray(NtpPacket.sntp_request(1.0).encode())
    data[0] &= ~(0x7 << 3) & 0xFF  # clear the version bits
    with pytest.raises(ValueError):
        _ref_decode(bytes(data))
    with pytest.raises(ValueError, match="version"):
        NtpPacket.decode(bytes(data))


def test_codec_half_zero_timestamp_words_are_not_unset():
    # Only the all-zero 8 bytes mean "unset"; a zero seconds word with a
    # non-zero fraction (or the reverse) is a real instant.
    wire = bytearray(NtpPacket(mode=Mode.SERVER, stratum=1).encode())
    wire[16:24] = struct.pack("!II", 0, 1)
    wire[24:32] = struct.pack("!II", 1, 0)
    got = NtpPacket.decode(bytes(wire))
    _assert_same_packet(got, _ref_decode(bytes(wire)))
    assert got.reference_ts is not None and got.origin_ts is not None
    assert got.receive_ts is None and got.transmit_ts is None
