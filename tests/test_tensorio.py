import hashlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ssdiffmri import tensorio
from ssdiffmri.kspace import EncodingOperator, encode
from ssdiffmri.masks import make_random_mask
from ssdiffmri.tensorio import (CkspError, DatasetManifest, generate_phantom,
                                generate_sensitivities, read_tensor, write_tensor)


def _random_tensor(rng, shape):
    # float32-representable values so the c64 payload round-trips exactly
    re = rng.standard_normal(shape).astype(np.float32)
    im = rng.standard_normal(shape).astype(np.float32)
    return (re + 1j * im).astype(np.complex128)


class TestFileFormat:
    def test_zero_tensor_payload(self, tmp_path):
        path = tmp_path / "z.cksp"
        write_tensor(np.zeros((2, 2), complex), path)
        raw = path.read_bytes()
        assert raw[:4] == b"CKSP"
        header_len = int.from_bytes(raw[4:8], "little")
        payload = raw[8 + header_len:]
        assert len(payload) == 2 * 2 * 8
        assert payload == b"\x00" * 32

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        t = _random_tensor(rng, (3, 5, 7))
        path = tmp_path / "t.cksp"
        write_tensor(t, path)
        back = read_tensor(path)
        assert back.shape == t.shape
        assert np.array_equal(back, t)

    def test_round_trip_bit_exact_payload(self, tmp_path):
        rng = np.random.default_rng(1)
        t = _random_tensor(rng, (4, 4))
        p1, p2 = tmp_path / "a.cksp", tmp_path / "b.cksp"
        write_tensor(t, p1)
        write_tensor(read_tensor(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_payload_length_4_64_64(self, tmp_path):
        t = np.zeros((4, 64, 64), complex)
        path = tmp_path / "big.cksp"
        write_tensor(t, path)
        raw = path.read_bytes()
        header_len = int.from_bytes(raw[4:8], "little")
        assert len(raw) - 8 - header_len == 4 * 64 * 64 * 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cksp"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(CkspError, match=r"bad\.cksp.* is not a CKSP file$"):
            read_tensor(path)

    def test_payload_mismatch(self, tmp_path):
        import json
        import struct
        header = json.dumps({"version": 1, "shape": [2, 2], "dtype": "c64"}).encode()
        # 3 complex values where the shape promises 4
        payload = np.zeros(3, dtype="<c8").tobytes()
        path = tmp_path / "short.cksp"
        path.write_bytes(b"CKSP" + struct.pack("<I", len(header)) + header + payload)
        with pytest.raises(CkspError, match="payload has 24 bytes, header needs 32$"):
            read_tensor(path)

    def test_payload_too_long(self, tmp_path):
        import json
        import struct
        header = json.dumps({"version": 1, "shape": [2, 2], "dtype": "c64"}).encode()
        payload = np.zeros(5, dtype="<c8").tobytes()
        path = tmp_path / "long.cksp"
        path.write_bytes(b"CKSP" + struct.pack("<I", len(header)) + header + payload)
        with pytest.raises(CkspError, match=r"payload has 40 bytes, header shape "
                                            r"\(2, 2\) needs exactly 32$"):
            read_tensor(path)

    def test_nonfinite_rejected(self, tmp_path):
        t = np.array([[np.nan + 0j]])
        with pytest.raises(ValueError):
            write_tensor(t, tmp_path / "nan.cksp")

    def test_value_beyond_float32_refused_before_writing(self, tmp_path):
        # 1e39 is finite in float64 but inf in the complex64 payload
        path = tmp_path / "big.cksp"
        with pytest.raises(ValueError):
            write_tensor(np.array([1e39, 1.0]), path)
        assert not path.exists()

    def test_encoded_measurement_round_trips_byte_for_byte(self, tmp_path):
        # encode returns a measurement at file precision: writing it loses nothing
        sens = generate_sensitivities(4, 32, 32, seed=4)
        op = EncodingOperator(sens, make_random_mask(32, 4, 0.06, seed=4), 32, 32)
        meas = encode(generate_phantom(32, 32, 6, seed=4), op)
        write_tensor(meas, tmp_path / "m.cksp")
        back = read_tensor(tmp_path / "m.cksp")
        assert back.dtype == meas.dtype == np.complex64
        assert back.shape == meas.shape and back.tobytes() == meas.tobytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(CkspError):
            read_tensor(tmp_path / "absent.cksp")

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=3),
           st.integers(0, 2**31 - 1))
    def test_round_trip_property(self, tmp_path_factory, shape, seed):
        rng = np.random.default_rng(seed)
        t = _random_tensor(rng, tuple(shape))
        path = tmp_path_factory.mktemp("rt") / "t.cksp"
        write_tensor(t, path)
        assert np.array_equal(read_tensor(path), t)

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.complex64, hnp.array_shapes(max_dims=3, max_side=5),
                      elements=st.complex_numbers(width=64, allow_nan=False,
                                                  allow_infinity=False)))
    def test_complex64_round_trips_bit_for_bit(self, tmp_path_factory, t):
        path = tmp_path_factory.mktemp("c64") / "t.cksp"
        write_tensor(t, path)
        back = read_tensor(path)
        assert back.dtype == np.complex64 and back.shape == t.shape
        assert back.tobytes() == t.tobytes()


# JSON values of every kind, nested, for fuzzed headers
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**70) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
_headers = st.one_of(
    st.binary(max_size=24),
    _json.map(json.dumps),
    st.fixed_dictionaries({"shape": _json}).map(json.dumps),
    st.fixed_dictionaries({"shape": st.lists(st.integers(-1, 3), max_size=2)}).map(json.dumps),
).map(lambda h: h if isinstance(h, bytes) else h.encode())


def _after_magic(header, payload):
    return struct.pack("<I", len(header)) + header + payload


def _well_formed(shape):
    n = 8 * math.prod(shape)
    return st.binary(min_size=n, max_size=n).map(
        lambda payload: _after_magic(json.dumps({"shape": shape}).encode(), payload))


# anything after the magic: raw bytes, fuzzed headers, and valid layouts
_after_magic_bytes = st.one_of(
    st.binary(max_size=64),
    st.builds(_after_magic, _headers,
              st.integers(0, 9).flatmap(lambda n: st.binary(min_size=8 * n, max_size=8 * n))),
    st.lists(st.integers(1, 3), max_size=2).flatmap(_well_formed))


class TestMalformedFiles:
    @pytest.mark.parametrize("header", [b"{}", b'{"shape": 5}', b"[2, 2]",
                                        b'{"shape": null}', b'{"shape": ["x"]}',
                                        b'{"shape": [true]}', b'{"shape": [2.0]}'])
    def test_bad_header_raises_cksp_error(self, tmp_path, header):
        path = tmp_path / "h.cksp"
        path.write_bytes(b"CKSP" + _after_magic(header, bytes(32)))
        with pytest.raises(CkspError, match="list of integers"):
            read_tensor(path)

    def test_nonfinite_payload_rejected(self, tmp_path):
        path = tmp_path / "nan.cksp"
        path.write_bytes(b"CKSP" + _after_magic(b'{"shape": [1]}',
                                                np.array([np.nan], "<c8").tobytes()))
        with pytest.raises(CkspError, match="non-finite"):
            read_tensor(path)

    @settings(max_examples=300, deadline=None)
    @given(_after_magic_bytes)
    @example(_after_magic(b'{"shape": [2]}', np.arange(2, dtype="<c8").tobytes()))
    def test_any_bytes_round_trip_or_raise_cksp_error(self, tmp_path_factory, rest):
        d = tmp_path_factory.mktemp("fuzz")
        path = d / "f.cksp"
        path.write_bytes(b"CKSP" + rest)
        try:
            t = read_tensor(path)
        except CkspError:
            return
        write_tensor(t, d / "g.cksp")
        again = read_tensor(d / "g.cksp")
        assert again.shape == t.shape and np.array_equal(again, t)
        header_len = struct.unpack("<I", rest[:4])[0]
        assert np.asarray(t, "<c8").tobytes() == rest[4 + header_len:]


def _full_grid_phantom(rows, cols, n_ellipses, seed):
    """The phantom generator as it was before the bounding-box rewrite: every
    ellipse tested on the whole grid. The reference for byte identity."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:rows, 0:cols]
    y = (yy - (rows - 1) / 2.0) / ((rows - 1) / 2.0)
    x = (xx - (cols - 1) / 2.0) / ((cols - 1) / 2.0)
    r2 = (x / 0.92) ** 2 + (y / 0.92) ** 2
    img = np.where(r2 <= 1.0, 0.8 * (1.0 - 0.5 * r2), 0.0)
    for _ in range(n_ellipses - 1):
        cx = rng.uniform(-0.55, 0.55)
        cy = rng.uniform(-0.55, 0.55)
        ax = rng.uniform(0.08, 0.35)
        ay = rng.uniform(0.08, 0.35)
        theta = rng.uniform(0.0, np.pi)
        amp = rng.uniform(0.15, 0.45) * rng.choice([-1.0, 1.0])
        ct, st = np.cos(theta), np.sin(theta)
        xr = (x - cx) * ct + (y - cy) * st
        yr = -(x - cx) * st + (y - cy) * ct
        img = img + np.where((xr / ax) ** 2 + (yr / ay) ** 2 <= 1.0, amp, 0.0)
    return np.clip(img, 0.0, 1.0).astype(np.complex128)


class TestPhantom:
    # (rows, cols, ellipses, seed, sha256 of the complex128 bytes), from the
    # full-grid generator. Each seed is the one of 0..299 whose ellipse
    # bounding boxes reach farthest towards the border: past it on the
    # 16-pixel axes, up to it on the 33-row one (an ellipse reaches at most
    # 0.9 from the center, so larger grids keep a margin).
    PINNED = [
        (16, 16, 1, 0, "74aefe5d8533d79c3fdd154fac578e69a468a69a4599c124e2289f0e98c17d8d"),
        (16, 16, 2, 53, "3ca460e1e68e8a4bf7e0225f1dea52d63761f4a427c054bbe992345ca94718a0"),
        (16, 16, 8, 13, "d8246e19f1a17614a2f2e5f6849e2d93462efba0edb22e6135f5aa7f09f9d4b0"),
        (16, 16, 20, 0, "9b29d685f48c6d2744b6b644b9b6e462ce690a6cb22b9f635bc2e54b6ecf117a"),
        (16, 40, 1, 0, "db8670cfee3dc61f5d059c417180d56c54e2a70cafdbb4feb650d2e19cef27fd"),
        (16, 40, 2, 56, "084e1d03a9f5d8a900e6bfd3a2961d5d1fb354eba1d8b428b0e95d46712a12b4"),
        (16, 40, 8, 27, "8b0c81a6700c942f0eff8f903f66b37ea3f8850b5fa6220df093a1b82d85e7f3"),
        (16, 40, 20, 0, "038e5e8f414ffc8589f3826922eb404716e3c2392e1d8d08c4def684c8a25db7"),
        (33, 64, 1, 0, "9b498f9fc4dd387ea714bc8511217decdf1e63dc866538577467f674ddba2ae4"),
        (33, 64, 2, 56, "1f54728b6a56c0b984766dd3fd795bc202f81784643b812e443254bc01d7d45a"),
        (33, 64, 8, 27, "8d30a01a930ea105cd75c65131d4fd3f9f309aadd7fb815476b8db1a24831012"),
        (33, 64, 20, 0, "d085d7779869979c1975aefad3003602122f0d9970fd4b6b010d8d52b99c7036"),
        (64, 64, 1, 0, "87b156adf5c9dfe50756422c00b38b1e1073e5861c1ed754f5cb4b00b40d9e2e"),
        (64, 64, 2, 56, "6d0945d52245d1ddac8ac42ba8177e5d7f790762a3f7a9138f0bfec98e2c1431"),
        (64, 64, 8, 13, "3df2b178008b386f86bbb31e2b5bbc865aa791cd6dcbf6a4312185f8e469fd90"),
        (64, 64, 20, 0, "e6918dbdc2d204cbed6e1dca6e5e17f01c522836977cccc235a4fc0fbd307ba4"),
        (128, 96, 1, 0, "c5277691b8934cf7ca8d63b17151c97eee389aaa5a953166e5fcd9bfd9f92912"),
        (128, 96, 2, 126, "fda7083daad8be3eb31f774d249cda589e31836b26de853f4aaa22479054b295"),
        (128, 96, 8, 13, "82b9746fa60451f491d5cd95b5e86febe85b66f01c756fa41b7470ecf7eef24e"),
        (128, 96, 20, 8, "1338380e1cbe8b3500d3fc7cf6fd53288bb8720195c0a4b9fe49776d685646bd"),
    ]

    @pytest.mark.parametrize("rows,cols,n_ellipses,seed,digest", PINNED,
                             ids=lambda v: str(v)[:8])
    def test_pinned_bytes(self, rows, cols, n_ellipses, seed, digest):
        ph = generate_phantom(rows, cols, n_ellipses, seed=seed)
        assert ph.dtype == np.float64 and ph.shape == (rows, cols)
        assert hashlib.sha256(ph.astype(np.complex128).tobytes()).hexdigest() == digest

    def test_equals_the_full_grid_generator(self):
        rng = np.random.default_rng(2024)
        for _ in range(1200):
            rows, cols = (int(v) for v in rng.integers(16, 100, 2))
            n_ellipses = int(rng.integers(1, 21))
            seed = int(rng.integers(0, 2**32))
            case = (rows, cols, n_ellipses, seed)
            ph = generate_phantom(rows, cols, n_ellipses, seed=seed).astype(np.complex128)
            assert ph.tobytes() == _full_grid_phantom(*case).tobytes(), case

    def test_deterministic(self):
        a = generate_phantom(32, 32, 5, seed=3)
        b = generate_phantom(32, 32, 5, seed=3)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = generate_phantom(32, 32, 5, seed=3)
        b = generate_phantom(32, 32, 5, seed=4)
        assert not np.array_equal(a, b)

    def test_single_ellipse_peak_at_center(self):
        ph = generate_phantom(33, 33, 1, seed=0)
        assert ph[16, 16] == ph.max()
        # even-sized grids peak on the four center pixels
        ph = generate_phantom(64, 64, 1, seed=0)
        assert ph.max() == pytest.approx(ph[31:33, 31:33].max())

    def test_range_and_realness(self):
        for seed in range(5):
            ph = generate_phantom(48, 40, 10, seed=seed)
            assert ph.dtype == np.float64
            assert ph.min() >= 0.0
            assert ph.max() <= 1.0

    def test_degenerate_extents(self):
        with pytest.raises(ValueError):
            generate_phantom(8, 64, 1, seed=0)
        with pytest.raises(ValueError):
            generate_phantom(64, 64, 0, seed=0)


class TestSensitivities:
    def test_single_coil_unit_magnitude(self):
        maps = generate_sensitivities(1, 24, 24, seed=0)
        assert np.allclose(np.abs(maps[0]), 1.0, atol=1e-12)

    @pytest.mark.parametrize("n_coils", [1, 2, 4, 8])
    def test_sum_of_squares_normalization(self, n_coils):
        maps = generate_sensitivities(n_coils, 32, 32, seed=7)
        sos = np.sum(np.abs(maps) ** 2, axis=0)
        assert np.max(np.abs(sos - 1.0)) < 1e-6

    def test_deterministic(self):
        a = generate_sensitivities(4, 16, 16, seed=5)
        b = generate_sensitivities(4, 16, 16, seed=5)
        assert np.array_equal(a, b)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            generate_sensitivities(0, 16, 16)

    @pytest.mark.parametrize("rows,cols", [(1, 8), (8, 1), (1, 1), (0, 8)])
    def test_single_row_or_column_rejected(self, rows, cols):
        # the coordinate normalisation divides by (extent - 1) / 2
        with pytest.raises(ValueError, match="extents"):
            generate_sensitivities(4, rows, cols)

    def test_two_by_two_is_finite(self):
        maps = generate_sensitivities(3, 2, 2, seed=1)
        assert np.all(np.isfinite(maps))


class TestManifest:
    def test_round_trip_and_validate(self, tmp_path):
        man = DatasetManifest(rows=16, cols=16, n_coils=1, n_ellipses=2, seed=1)
        t = np.zeros((16, 16), complex)
        write_tensor(t, tmp_path / "sens.cksp")
        write_tensor(t, tmp_path / "s0.cksp")
        man.slices.append("s0.cksp")
        man.save(tmp_path / "manifest.json")
        back = DatasetManifest.from_json((tmp_path / "manifest.json").read_text())
        assert back == man
        back.validate(tmp_path)

    def test_validate_missing(self, tmp_path):
        man = DatasetManifest(rows=16, cols=16, n_coils=1, n_ellipses=2, seed=1,
                              slices=["gone.cksp"])
        with pytest.raises(FileNotFoundError):
            man.validate(tmp_path)
