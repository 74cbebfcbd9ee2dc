import math
import struct
import threading
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from itmbench.errors import DomainError, FormatError, ItmError, ParseError, ShapeError
from itmbench.image_io import (LinearImage, Ldr8Image, _rgbe_decode_rows, _rgbe_encode_rows,
                               index_linear_dir, ordered_map, read_hdr, read_ldr8, read_linear,
                               read_pfm, write_hdr, write_ldr8, write_linear, write_pfm,
                               _png_encode)


def _stored(tmp_path, *rgb) -> list:
    """The RGBE pixels write_hdr stores for a width-1 (flat) float32 image of `rgb`."""
    path = tmp_path / "flat.hdr"
    write_hdr(LinearImage(np.array(rgb, dtype=np.float32)[:, None, :]), path)
    stored = np.frombuffer(path.read_bytes()[-4 * len(rgb):], dtype=np.uint8).reshape(-1, 4)
    return [tuple(int(v) for v in px) for px in stored]


def _read_flat(tmp_path, *pixels) -> np.ndarray:
    """read_hdr of a width-1 flat file holding the given RGBE pixels, as (n, 3)."""
    path = tmp_path / "flat.hdr"
    body = np.array(pixels, dtype=np.uint8).tobytes()
    path.write_bytes(b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y %d +X 1\n" % len(pixels) + body)
    return read_hdr(path).data[:, 0, :]


def _encode(rgb) -> tuple:
    return tuple(int(v) for v in _rgbe_encode_rows(np.array([rgb], dtype=np.float64))[0])


def _decode(pixel) -> tuple:
    return tuple(float(v) for v in _rgbe_decode_rows(np.array([pixel], dtype=np.uint8))[0])


class TestRgbePixel:
    def test_black_is_canonical(self, tmp_path):
        assert _stored(tmp_path, (0.0, 0.0, 0.0)) == [(0, 0, 0, 0)]

    def test_unit_white(self, tmp_path):
        assert _stored(tmp_path, (1.0, 1.0, 1.0)) == [(128, 128, 128, 129)]

    def test_decode_black(self, tmp_path):
        assert _read_flat(tmp_path, (0, 0, 0, 0)).tolist() == [[0.0, 0.0, 0.0]]

    def test_decode_unit_white(self, tmp_path):
        assert _read_flat(tmp_path, (128, 128, 128, 129)).tolist() == [[1.0, 1.0, 1.0]]

    def test_exact_dyadic_triple(self, tmp_path):
        (pixel,) = _stored(tmp_path, (0.5, 0.25, 0.125))
        assert _read_flat(tmp_path, pixel).tolist() == [[0.5, 0.25, 0.125]]

    def test_just_below_smallest_exponent_rounds_up(self, tmp_path):
        # max channel in [2**-128 * (1 - 2**-9), 2**-128) rounds to mantissa 256 at
        # exponent 0, so it takes exponent 1 rather than underflowing to black
        assert _stored(tmp_path, (2.9358e-39, 0.0, 0.0)) == [(128, 0, 0, 1)]
        # a float64 subnormal, which a float32 LinearImage cannot hold
        assert _encode((5e-324, 0.0, 0.0)) == (0, 0, 0, 0)

    # The properties run on the row codec: a flat file cannot hold a first pixel
    # (1, 1, 1, e), which read_hdr reads as a repeat code.
    @given(st.floats(min_value=1e-30, max_value=1e30),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_error_bounds(self, m, fg, fb):
        # max channel relative error <= 1/256; others bounded by the exponent quantum
        rgb = (m, m * fg, m * fb)
        pixel = _encode(rgb)
        back = _decode(pixel)
        assert abs(back[0] - rgb[0]) <= rgb[0] / 256.0 + 1e-300
        quantum = math.ldexp(1.0, pixel[3] - 128) / 256.0
        for i in (1, 2):
            assert abs(back[i] - rgb[i]) <= quantum / 2 + 1e-300

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255),
           st.integers(0, 255))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_idempotent(self, r, g, b, e):
        first = _decode((r, g, b, e))
        again = _decode(_encode(first))
        assert _decode(_encode(again)) == again


class TestRadianceFile:
    def test_black_round_trip(self, tmp_path):
        img = LinearImage(np.zeros((2, 2, 3), dtype=np.float32))
        write_hdr(img, tmp_path / "black.hdr")
        back = read_hdr(tmp_path / "black.hdr")
        assert np.array_equal(back.data, img.data)

    def test_unit_row_exact(self, tmp_path):
        # width 4 forces the flat (non-RLE) writer path
        img = LinearImage(np.ones((1, 4, 3), dtype=np.float32))
        write_hdr(img, tmp_path / "ones.hdr")
        back = read_hdr(tmp_path / "ones.hdr")
        assert np.array_equal(back.data, np.ones((1, 4, 3), dtype=np.float32))

    def test_random_round_trip_quantization_bound(self, tmp_path, rng):
        data = rng.uniform(1e-3, 50.0, size=(64, 64, 3)).astype(np.float32)
        img = LinearImage(data)
        write_hdr(img, tmp_path / "r.hdr")
        back = read_hdr(tmp_path / "r.hdr").data.astype(np.float64)
        orig = data.astype(np.float64)
        peak = orig.max(axis=2)
        err = np.abs(back.max(axis=2) - peak)
        assert (err <= peak / 256.0 + 1e-12).all()

    def test_rle_runs_round_trip(self, tmp_path):
        # long constant runs exercise the run-length encoder
        data = np.zeros((3, 100, 3), dtype=np.float32)
        data[:, :50] = 0.25
        data[:, 50:] = 2.0
        data[1, 70] = 7.0
        img = LinearImage(data)
        write_hdr(img, tmp_path / "runs.hdr")
        back = read_hdr(tmp_path / "runs.hdr")
        assert np.allclose(back.data, data, rtol=1 / 256.0)

    def test_header_entry_length_matches_the_reader(self, tmp_path):
        # read_hdr takes header lines of up to 4095 bytes before the newline
        path = tmp_path / "h.hdr"

        def write(line: bytes):
            path.write_bytes(b"#?RADIANCE\n" + line + b"\nFORMAT=32-bit_rle_rgbe\n\n-Y 1 +X 1\n"
                             + bytes((128, 64, 32, 129)))

        write(b"#" + b"x" * 4094)
        assert read_hdr(path).data.tolist() == [[[1.0, 0.5, 0.25]]]
        write(b"#" + b"x" * 4095)
        with pytest.raises(ParseError, match=r"unterminated header line \(byte offset 11\)"):
            read_hdr(path)

    def test_writer_memory_does_not_grow_with_width(self, tmp_path):
        # the band is a pixel budget; 32 scanlines of this width at once read
        # a traced peak of about 110 MB
        data = np.random.default_rng(6).lognormal(0.0, 1.5, (32, 32767, 3)).astype(np.float32)
        img = LinearImage(data)
        tracemalloc.start()
        try:
            write_hdr(img, tmp_path / "wide.hdr")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, f"peak traced allocation {peak} bytes"

    def test_writer_memory_does_not_grow_with_height(self, tmp_path):
        # scanlines are coded a band at a time; coding the whole image at once
        # reads a traced peak above 30 MB at this size
        data = np.random.default_rng(5).lognormal(0.0, 1.5, (512, 512, 3)).astype(np.float32)
        img = LinearImage(data)
        tracemalloc.start()
        try:
            write_hdr(img, tmp_path / "big.hdr")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, f"peak traced allocation {peak} bytes"

    def test_flat_scanline_starting_2_2_with_high_bit_is_old_style(self, tmp_path):
        # (2,2,b,e) with b's high bit set cannot be an adaptive marker
        pixels = bytes([2, 2, 200, 130]) + bytes([128, 90, 10, 129]) * 9
        blob = b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y 1 +X 10\n" + pixels
        path = tmp_path / "ambig.hdr"
        path.write_bytes(blob)
        img = read_hdr(path)
        assert np.allclose(img.data[0, 0], _decode((2, 2, 200, 130)))
        assert np.allclose(img.data[0, 1], _decode((128, 90, 10, 129)))

    def test_reads_rgbe_magic_and_old_style_rle(self, tmp_path):
        # hand-built old-style stream: pixel then (1,1,1,3) repeat = 4 identical
        body = bytes([128, 64, 32, 129]) + bytes([1, 1, 1, 3])
        blob = b"#?RGBE\nFORMAT=32-bit_rle_rgbe\n\n-Y 1 +X 4\n" + body
        path = tmp_path / "old.hdr"
        path.write_bytes(blob)
        img = read_hdr(path)
        assert img.width == 4
        expected = _decode((128, 64, 32, 129))
        assert np.allclose(img.data, np.array(expected, dtype=np.float32))

    @pytest.mark.parametrize("blob, what", [
        (b"#?NOPE\n\n-Y 1 +X 1\n" + b"\x00" * 4, "magic"),
        (b"#?RADIANCE\nFORMAT=64-bit_xyze\n\n-Y 1 +X 1\n" + b"\x00" * 4, "format"),
        (b"#?RADIANCE\n\n+Y 1 +X 1\n" + b"\x00" * 4, "orientation"),
        (b"#?RADIANCE\n\n-Y 2 +X 2\n" + b"\x00" * 4, "truncated"),
        (b"#?RADIANCE\n\n-Y 0 +X 4\n", "zero dim"),
        (b"#?RADIANCE\n\n-Y 99999 +X 99999\n", "oversized"),
    ])
    def test_malformed_files_raise_parse_error(self, tmp_path, blob, what):
        path = tmp_path / "bad.hdr"
        path.write_bytes(blob)
        with pytest.raises(ParseError):
            read_hdr(path)

    def test_parse_error_carries_offset(self, tmp_path):
        path = tmp_path / "bad.hdr"
        path.write_bytes(b"#?NOPE\n\n-Y 1 +X 1\n")
        with pytest.raises(ParseError) as err:
            read_hdr(path)
        assert err.value.offset == 0


class TestPfm:
    def test_bit_exact_round_trip(self, tmp_path, rng):
        data = rng.uniform(0, 1e6, size=(7, 5, 3)).astype(np.float32)
        img = LinearImage(data)
        write_pfm(img, tmp_path / "a.pfm")
        back = read_pfm(tmp_path / "a.pfm")
        assert np.array_equal(back.data, data)

    def test_endianness_cross_encoding(self, tmp_path, rng):
        # same pixels, one file little-endian (scale<0), one big-endian (scale>0)
        data = rng.uniform(0, 10, size=(3, 4, 3)).astype(np.float32)
        le = b"PF\n4 3\n-1.0\n" + data[::-1].astype("<f4").tobytes()
        be = b"PF\n4 3\n1.0\n" + data[::-1].astype(">f4").tobytes()
        (tmp_path / "le.pfm").write_bytes(le)
        (tmp_path / "be.pfm").write_bytes(be)
        a = read_pfm(tmp_path / "le.pfm")
        b = read_pfm(tmp_path / "be.pfm")
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.data, data)

    def test_zero_dimensions_rejected(self, tmp_path):
        (tmp_path / "z.pfm").write_bytes(b"PF\n0 0\n-1.0\n")
        with pytest.raises(ParseError):
            read_pfm(tmp_path / "z.pfm")

    def test_truncated_rejected(self, tmp_path):
        (tmp_path / "t.pfm").write_bytes(b"PF\n4 4\n-1.0\n" + b"\x00" * 10)
        with pytest.raises(ParseError):
            read_pfm(tmp_path / "t.pfm")

    def test_grayscale_rejected(self, tmp_path):
        (tmp_path / "g.pfm").write_bytes(b"Pf\n1 1\n-1.0\n" + b"\x00" * 4)
        with pytest.raises(FormatError):
            read_pfm(tmp_path / "g.pfm")

    def test_non_finite_samples_rejected(self, tmp_path):
        nan = np.array([[[float("nan")] * 3]], dtype="<f4")
        (tmp_path / "n.pfm").write_bytes(b"PF\n1 1\n-1.0\n" + nan.tobytes())
        with pytest.raises(ParseError):
            read_pfm(tmp_path / "n.pfm")


@pytest.mark.parametrize("suffix, blob, message", [
    (".pfm", b"PF\n" + b"1" * 33 + b" 1\n-1.0\n", "PFM header token too long (byte offset 3)"),
    (".pfm", b"PF\n4 4\n", "truncated PFM header (byte offset 7)"),
    # '#' starts no comment in a PFM header: it is read as the width
    (".pfm", b"PF\n# 1 1\n1 1\n-1.0\n", "malformed PFM dimensions (byte offset 3)"),
    (".pfm", b"PF\n1 x\n-1.0\n", "malformed PFM dimensions (byte offset 3)"),
    (".pfm", b"PF\n1 1\n-1.0", "expected whitespace after PFM scale (byte offset 11)"),
    (".ppm", b"P6\n" + b"1" * 33 + b" 1\n255\n", "PPM header token too long (byte offset 3)"),
    (".ppm", b"P6\n1 1", "truncated PPM header (byte offset 6)"),
    (".ppm", b"P6\n# 1 1 255", "unterminated PPM comment (byte offset 3)"),
    (".ppm", b"P6\n# c\n1 y\n255\n", "malformed PPM header field (byte offset 9)"),
    (".ppm", b"P6\n1 1\n255", "expected whitespace after PPM maxval (byte offset 10)"),
])
def test_pfm_and_ppm_header_errors(tmp_path, suffix, blob, message):
    path = tmp_path / ("bad" + suffix)
    path.write_bytes(blob)
    with pytest.raises(ParseError) as err:
        read_pfm(path) if suffix == ".pfm" else read_ldr8(path)
    assert str(err.value) == message


class TestLdr8:
    def test_ppm_single_red_pixel(self, tmp_path):
        (tmp_path / "r.ppm").write_bytes(b"P6\n1 1\n255\n\xff\x00\x00")
        img = read_ldr8(tmp_path / "r.ppm")
        assert img.data.tolist() == [[[255, 0, 0]]]

    def test_png_round_trip_bit_exact(self, tmp_path, rng):
        data = rng.integers(0, 256, size=(13, 9, 3), dtype=np.uint8)
        img = Ldr8Image(data)
        write_ldr8(img, tmp_path / "a.png")
        back = read_ldr8(tmp_path / "a.png")
        assert np.array_equal(back.data, data)

    def test_ppm_round_trip(self, tmp_path, rng):
        data = rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
        for name in ("a.ppm", "b.PPM"):
            write_ldr8(Ldr8Image(data), tmp_path / name)
            assert np.array_equal(read_ldr8(tmp_path / name).data, data)
            assert (tmp_path / name).read_bytes().startswith(b"P6\n6 4\n255\n")

    def test_truncated_ppm_no_partial_image(self, tmp_path):
        (tmp_path / "t.ppm").write_bytes(b"P6\n4 4\n255\n\x00\x00")
        with pytest.raises(ParseError):
            read_ldr8(tmp_path / "t.ppm")

    def test_png_filters_reconstructed(self, tmp_path, rng):
        # hand-filter rows with Sub/Up/Average/Paeth and check reconstruction
        import struct
        import zlib

        data = rng.integers(0, 256, size=(4, 5, 3), dtype=np.uint8)
        rows = data.reshape(4, 15).astype(np.int64)
        filtered = bytearray()
        prev = np.zeros(15, dtype=np.int64)
        for y, ftype in enumerate((1, 2, 3, 4)):
            cur = rows[y]
            left = np.concatenate([[0, 0, 0], cur[:-3]])
            upleft = np.concatenate([[0, 0, 0], prev[:-3]])
            if ftype == 1:
                enc = cur - left
            elif ftype == 2:
                enc = cur - prev
            elif ftype == 3:
                enc = cur - (left + prev) // 2
            else:
                p = left + prev - upleft
                pa, pb, pc = np.abs(p - left), np.abs(p - prev), np.abs(p - upleft)
                pred = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, prev, upleft))
                enc = cur - pred
            filtered += bytes([ftype]) + (enc % 256).astype(np.uint8).tobytes()
            prev = cur

        def chunk(kind, body):
            crc = zlib.crc32(kind + body) & 0xFFFFFFFF
            return struct.pack(">I", len(body)) + kind + body + struct.pack(">I", crc)

        blob = (b"\x89PNG\r\n\x1a\n"
                + chunk(b"IHDR", struct.pack(">IIBBBBB", 5, 4, 8, 2, 0, 0, 0))
                + chunk(b"IDAT", zlib.compress(bytes(filtered)))
                + chunk(b"IEND", b""))
        (tmp_path / "f.png").write_bytes(blob)
        img = read_ldr8(tmp_path / "f.png")
        assert np.array_equal(img.data, data)

    def test_png_crc_mismatch_rejected(self, tmp_path, rng):
        data = rng.integers(0, 256, size=(3, 3, 3), dtype=np.uint8)
        write_ldr8(Ldr8Image(data), tmp_path / "a.png")
        blob = bytearray((tmp_path / "a.png").read_bytes())
        blob[-5] ^= 0xFF  # corrupt the IEND CRC
        (tmp_path / "bad.png").write_bytes(bytes(blob))
        with pytest.raises(ParseError):
            read_ldr8(tmp_path / "bad.png")

    def test_unsupported_container(self, tmp_path):
        (tmp_path / "x.bin").write_bytes(b"GIF89a....")
        with pytest.raises(FormatError):
            read_ldr8(tmp_path / "x.bin")

    def test_jpeg_requires_codec(self, tmp_path):
        (tmp_path / "x.jpg").write_bytes(b"\xff\xd8\xff\xe0fakejpeg")
        with pytest.raises(FormatError):
            read_ldr8(tmp_path / "x.jpg")

    def test_write_unknown_extension(self, tmp_path):
        # the suffix is the last file name's: a dot in a directory name is not one
        for name, suffix in (("x.tiff", ".tiff"), ("x.jpg", ".jpg"), ("run.v2/noext", "")):
            with pytest.raises(FormatError) as exc:
                write_ldr8(Ldr8Image(np.zeros((1, 1, 3), dtype=np.uint8)), tmp_path / name)
            assert str(exc.value) == (f"unsupported 8-bit image container {suffix!r} "
                                      "(.png or .ppm)")
            assert not (tmp_path / name).exists()


class TestContainers:
    def test_linear_image_rejects_negative_and_nan(self):
        with pytest.raises(FormatError):
            LinearImage(np.full((1, 1, 3), -1.0, dtype=np.float32))
        with pytest.raises(FormatError):
            LinearImage(np.full((1, 1, 3), np.nan, dtype=np.float32))
        with pytest.raises(FormatError):
            LinearImage(np.full((1, 1, 3), np.inf, dtype=np.float32))

    @pytest.mark.parametrize("value", [1e300, -1e300, 3.5e38,
                                       np.nextafter(float(np.finfo(np.float32).max), np.inf)])
    def test_float64_beyond_float32_range_rejected(self, value):
        # a value the float32 cast would overflow, or round down to the largest float32,
        # is the FormatError, not a RuntimeWarning
        with pytest.raises(FormatError, match="within float32's range"):
            LinearImage(np.full((2, 2, 3), value))
        with pytest.raises(FormatError, match="within float32's range"):
            LinearImage(np.array([[[value, np.inf, 0.0]]]))

    def test_float64_at_the_largest_float32_accepted(self):
        top = float(np.finfo(np.float32).max)
        assert (LinearImage(np.full((1, 1, 3), top)).data == np.float32(top)).all()

    @pytest.mark.parametrize("data", [np.array([[[1, 2, 3]]], dtype=np.int64),
                                      np.array([[[True, False, True]]]),
                                      np.array([[[0.5, 1, 65504]]], dtype=np.float16)])
    def test_integer_boolean_and_half_data_accepted(self, data):
        # the float32 bound is compared without casting it to the data's dtype
        assert LinearImage(data).data.tolist() == data.astype(np.float32).tolist()

    def test_linear_image_shape_checked(self):
        with pytest.raises(ShapeError):
            LinearImage(np.zeros((4, 4), dtype=np.float32))

    def test_ldr8_range_checked(self):
        with pytest.raises(FormatError):
            Ldr8Image(np.full((1, 1, 3), 300, dtype=np.int32))

    def test_errors_share_base_class(self):
        assert issubclass(ParseError, ItmError)
        assert issubclass(FormatError, ItmError)


class TestLinearRegistry:
    @pytest.mark.parametrize("suffix, write, read", [
        (".hdr", write_hdr, read_hdr),
        (".pfm", write_pfm, read_pfm),
        (".PFM", write_pfm, read_pfm),
    ])
    def test_round_trip_by_suffix(self, tmp_path, rng, suffix, write, read):
        img = LinearImage(rng.uniform(0.01, 4.0, (6, 5, 3)).astype(np.float32))
        path = tmp_path / f"img{suffix}"
        write_linear(img, path)
        write(img, tmp_path / "direct")
        assert path.read_bytes() == (tmp_path / "direct").read_bytes()
        back = read_linear(path)
        np.testing.assert_array_equal(back.data, read(path).data)
        # RGBE shares one exponent per pixel; PFM is lossless
        tol = 0.0 if suffix.lower() == ".pfm" else 1 / 128
        assert (np.abs(back.data - img.data) <= tol * img.data.max(axis=2, keepdims=True)).all()

    def test_index_drops_shared_stems(self, tmp_path):
        for name in ("b.pfm", "a.hdr", "a.PFM", "c.hdr", "c.txt"):
            (tmp_path / name).write_bytes(b"")
        files, errors = index_linear_dir(tmp_path)
        assert files == {"b": tmp_path / "b.pfm", "c": tmp_path / "c.hdr"}
        assert errors == [f"{tmp_path / 'a.PFM'} and {tmp_path / 'a.hdr'} share the stem 'a'; "
                          "none of them is used"]

    @pytest.mark.parametrize("jobs", [1])
    def test_ordered_map_runs_one_job_in_the_calling_thread(self, jobs):
        threads_before = threading.active_count()
        seen = ordered_map(lambda i: (i, threading.get_ident(), threading.active_count()),
                           range(5), jobs)
        assert seen == [(i, threading.get_ident(), threads_before) for i in range(5)]

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_ordered_map_rejects_jobs_below_one(self, jobs):
        calls = []
        with pytest.raises(DomainError, match="jobs must be >= 1"):
            ordered_map(calls.append, range(5), jobs)
        assert calls == []

    @pytest.mark.parametrize("jobs", [2.5, float("nan"), np.float64(2.0)])
    def test_ordered_map_rejects_a_non_integer_jobs(self, jobs):
        calls = []
        with pytest.raises(DomainError, match="jobs must be an integer"):
            ordered_map(calls.append, range(5), jobs)
        assert calls == []

    def test_ordered_map_accepts_a_numpy_integer(self):
        assert ordered_map(lambda i: i * i, range(5), np.int64(2)) == [0, 1, 4, 9, 16]

    def test_ordered_map_keeps_item_order_across_threads(self):
        barrier = threading.Barrier(2, timeout=10)

        def work(i):
            if i < 2:
                barrier.wait()  # the first two items run at once, on two threads
            return i * i, threading.get_ident()

        results = ordered_map(work, range(6), 2)
        assert [r for r, _ in results] == [i * i for i in range(6)]
        assert results[0][1] != results[1][1]

    def test_ordered_map_raises_the_first_failure(self):
        def work(i):
            if i == 3:
                raise ShapeError("item 3")
            return i

        for jobs in (1, 2):
            with pytest.raises(ShapeError, match="item 3"):
                ordered_map(work, range(5), jobs)

    def test_other_suffix_is_format_error(self, tmp_path):
        img = LinearImage(np.ones((2, 2, 3), dtype=np.float32))
        path = tmp_path / "img.exr"
        with pytest.raises(FormatError):
            write_linear(img, path)
        assert not path.exists()
        write_pfm(img, path)
        with pytest.raises(FormatError):
            read_linear(path)


# image shapes (height, width) for the PNG writer and reader tests
SHAPES = ((1, 1), (1, 6), (6, 1), (2, 2), (7, 5), (5, 7), (33, 17))


def _png(ihdr_size, idat: bytes) -> bytes:
    def chunk(kind, body):
        crc = zlib.crc32(kind + body) & 0xFFFFFFFF
        return struct.pack(">I", len(body)) + kind + body + struct.pack(">I", crc)

    w, h = ihdr_size
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
            + chunk(b"IDAT", idat) + chunk(b"IEND", b""))


class TestPngInflateBound:
    def test_bomb_inflates_no_further_than_the_declared_size(self, tmp_path):
        # a 16x16 PNG whose ~32 KB IDAT inflates to 32 MB of zeros
        deflate = zlib.compressobj(9)
        zeros = bytes(1 << 20)
        idat = b"".join(deflate.compress(zeros) for _ in range(32)) + deflate.flush()
        (tmp_path / "bomb.png").write_bytes(_png((16, 16), idat))
        tracemalloc.start()
        try:
            with pytest.raises(ParseError):
                read_ldr8(tmp_path / "bomb.png")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, f"peak traced allocation {peak} bytes"

    def test_stream_cut_short_is_rejected(self, tmp_path, rng):
        scan = rng.integers(0, 256, (4, 1 + 4 * 3), dtype=np.uint8)
        scan[:, 0] = 0
        idat = zlib.compress(scan.tobytes())
        (tmp_path / "whole.png").write_bytes(_png((4, 4), idat))
        assert np.array_equal(read_ldr8(tmp_path / "whole.png").data, scan[:, 1:].reshape(4, 4, 3))
        (tmp_path / "cut.png").write_bytes(_png((4, 4), idat[:-6]))
        with pytest.raises(ParseError):
            read_ldr8(tmp_path / "cut.png")


def _inflated_idat(blob: bytes) -> bytes:
    """The concatenated IDAT bodies of a PNG file, inflated."""
    pos, idat = 8, b""
    while pos < len(blob):
        (length,) = struct.unpack(">I", blob[pos:pos + 4])
        if blob[pos + 4:pos + 8] == b"IDAT":
            idat += blob[pos + 8:pos + 8 + length]
        pos += 12 + length
    return zlib.decompress(idat)


def _gradient(shape, axis) -> np.ndarray:
    """Bytes that step by 7 along `axis` (0: down the rows, 1: along them), per channel."""
    h, w = shape
    ramp = np.arange(h)[:, None] if axis == 0 else np.arange(w)[None, :]
    values = (7 * ramp[..., None] + np.array([20, 90, 160])) % 256
    return np.broadcast_to(values, (h, w, 3)).astype(np.uint8)


class TestPngWriter:
    """`_png_encode` stores the oracle's scanlines: None, Sub or Up by minimum sum."""

    def check(self, tmp_path, data: np.ndarray) -> bytes:
        blob = _png_encode(Ldr8Image(data))
        scan = _inflated_idat(blob)
        assert scan == oracles.naive_png_scan(data)
        (tmp_path / "w.png").write_bytes(blob)
        assert np.array_equal(read_ldr8(tmp_path / "w.png").data, data)
        return scan[::3 * data.shape[1] + 1]  # the filter byte of each row

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_noise(self, tmp_path, shape):
        rng = np.random.default_rng(shape[0] * 40 + shape[1])
        self.check(tmp_path, rng.integers(0, 256, shape + (3,), dtype=np.uint8))

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("axis", (0, 1), ids=["vertical", "horizontal"])
    def test_gradients(self, tmp_path, shape, axis):
        self.check(tmp_path, _gradient(shape, axis))

    @pytest.mark.parametrize("value", (3, 200))
    def test_constant(self, tmp_path, value):
        self.check(tmp_path, np.full((5, 7, 3), value, dtype=np.uint8))

    @pytest.mark.parametrize("axis, ftype", ((0, 1), (1, 2)), ids=["vertical-sub", "horizontal-up"])
    def test_gradient_takes_one_filter_on_every_row(self, tmp_path, axis, ftype):
        assert set(self.check(tmp_path, _gradient((33, 17), axis))) == {ftype}

    def test_all_zero_image_takes_none_on_a_tie(self, tmp_path):
        # every filter scores 0; the lowest type wins
        assert set(self.check(tmp_path, np.zeros((4, 4, 3), dtype=np.uint8))) == {0}
