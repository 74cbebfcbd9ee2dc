import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itmbench.errors import FormatError, ItmError, ParseError, ShapeError
from itmbench.image_io import (LinearImage, Ldr8Image, RgbePixel, index_linear_dir,
                               read_hdr, read_ldr8, read_linear, read_pfm, rgbe_decode,
                               rgbe_encode, write_hdr, write_ldr8, write_linear,
                               write_pfm)


class TestRgbePixel:
    def test_black_is_canonical(self):
        assert rgbe_encode((0.0, 0.0, 0.0)) == RgbePixel(0, 0, 0, 0)

    def test_unit_white(self):
        assert rgbe_encode((1.0, 1.0, 1.0)) == RgbePixel(128, 128, 128, 129)

    def test_decode_black(self):
        assert rgbe_decode((0, 0, 0, 0)) == (0.0, 0.0, 0.0)

    def test_decode_unit_white(self):
        assert rgbe_decode((128, 128, 128, 129)) == (1.0, 1.0, 1.0)

    def test_exact_dyadic_triple(self):
        pixel = rgbe_encode((0.5, 0.25, 0.125))
        assert rgbe_decode(pixel) == (0.5, 0.25, 0.125)

    def test_non_finite_rejected(self):
        with pytest.raises(FormatError):
            rgbe_encode((float("nan"), 0.0, 0.0))
        with pytest.raises(FormatError):
            rgbe_encode((float("inf"), 0.0, 0.0))

    def test_negative_rejected(self):
        with pytest.raises(FormatError):
            rgbe_encode((-0.25, 0.0, 0.0))

    @pytest.mark.parametrize("pixel", [(256, 0, 0, 130), (0, 0, 0, -1), (1, 2, 3, 300)])
    def test_decode_rejects_component_outside_a_byte(self, pixel):
        with pytest.raises(FormatError):
            rgbe_decode(pixel)

    def test_just_below_smallest_exponent_rounds_up(self):
        # max channel in [2**-128 * (1 - 2**-9), 2**-128) rounds to mantissa 256 at
        # exponent 0, so it takes exponent 1 rather than underflowing to black
        assert rgbe_encode((np.float32(2.9358e-39), 0.0, 0.0)) == RgbePixel(128, 0, 0, 1)
        assert rgbe_encode((5e-324, 0.0, 0.0)) == RgbePixel(0, 0, 0, 0)

    def test_scalar_codec_matches_file_codec(self, tmp_path):
        # float32 sweep over every binade, edges of each power of two included
        k = np.arange(-149, 127, dtype=np.float64)
        edges = np.array([1.0, 1 - 2**-9, 1 - 2**-10, 1 - 2**-8, 1 + 2**-9, 0.7])
        m = (2.0 ** k[:, None] * edges).ravel()
        m = np.append(m, 2.9358e-39).astype(np.float32)
        rgb = np.stack([m, m * np.float32(0.37), m * np.float32(0.001)], axis=-1)
        path = tmp_path / "sweep.hdr"
        write_hdr(LinearImage(rgb[:, None, :]), path)  # width 1: flat pixels
        stored = np.frombuffer(path.read_bytes()[-4 * len(m):], dtype=np.uint8).reshape(-1, 4)
        decoded = read_hdr(path).data[:, 0, :]
        for px, want, back in zip(rgb, stored, decoded):
            pixel = rgbe_encode(px)
            assert pixel == tuple(int(v) for v in want)
            assert rgbe_decode(pixel) == tuple(float(v) for v in back)

    @given(st.floats(min_value=1e-30, max_value=1e30),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_error_bounds(self, m, fg, fb):
        # max channel relative error <= 1/256; others bounded by the exponent quantum
        rgb = (m, m * fg, m * fb)
        pixel = rgbe_encode(rgb)
        back = rgbe_decode(pixel)
        assert abs(back[0] - rgb[0]) <= rgb[0] / 256.0 + 1e-300
        quantum = math.ldexp(1.0, pixel.exponent - 128) / 256.0
        for i in (1, 2):
            assert abs(back[i] - rgb[i]) <= quantum / 2 + 1e-300

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255),
           st.integers(0, 255))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_idempotent(self, r, g, b, e):
        first = rgbe_decode((r, g, b, e))
        again = rgbe_decode(rgbe_encode(first))
        assert rgbe_decode(rgbe_encode(again)) == again


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

    def test_header_attributes_preserved(self, tmp_path):
        img = LinearImage(np.full((2, 9, 3), 0.5, dtype=np.float32),
                          header=("EXPOSURE=1.0", "# synthetic"))
        write_hdr(img, tmp_path / "h.hdr")
        back = read_hdr(tmp_path / "h.hdr")
        assert "EXPOSURE=1.0" in back.header
        assert "# synthetic" in back.header

    def test_flat_scanline_starting_2_2_with_high_bit_is_old_style(self, tmp_path):
        # (2,2,b,e) with b's high bit set cannot be an adaptive marker
        pixels = bytes([2, 2, 200, 130]) + bytes([128, 90, 10, 129]) * 9
        blob = b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y 1 +X 10\n" + pixels
        path = tmp_path / "ambig.hdr"
        path.write_bytes(blob)
        img = read_hdr(path)
        assert np.allclose(img.data[0, 0], rgbe_decode((2, 2, 200, 130)))
        assert np.allclose(img.data[0, 1], rgbe_decode((128, 90, 10, 129)))

    def test_reads_rgbe_magic_and_old_style_rle(self, tmp_path):
        # hand-built old-style stream: pixel then (1,1,1,3) repeat = 4 identical
        body = bytes([128, 64, 32, 129]) + bytes([1, 1, 1, 3])
        blob = b"#?RGBE\nFORMAT=32-bit_rle_rgbe\n\n-Y 1 +X 4\n" + body
        path = tmp_path / "old.hdr"
        path.write_bytes(blob)
        img = read_hdr(path)
        assert img.width == 4
        expected = rgbe_decode((128, 64, 32, 129))
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
        write_ldr8(Ldr8Image(data), tmp_path / "a.ppm")
        assert np.array_equal(read_ldr8(tmp_path / "a.ppm").data, data)

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

    def test_jpeg_codec_boundary(self, tmp_path, rng):
        class StubCodec:
            """Fake codec: stores raw pixels after a JPEG-looking magic."""

            def decode(self, data):
                h, w = data[4], data[5]
                arr = np.frombuffer(data[6:6 + h * w * 3], dtype=np.uint8)
                return Ldr8Image(arr.reshape(h, w, 3).copy())

            def encode(self, image, quality):
                head = b"\xff\xd8\xff\xe0" + bytes([image.height, image.width])
                return head + image.data.tobytes()

        data = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        codec = StubCodec()
        write_ldr8(Ldr8Image(data), tmp_path / "a.jpg", codec=codec, quality=90)
        back = read_ldr8(tmp_path / "a.jpg", codec=codec)
        assert np.array_equal(back.data, data)

    def test_write_unknown_extension(self, tmp_path):
        with pytest.raises(FormatError):
            write_ldr8(Ldr8Image(np.zeros((1, 1, 3), dtype=np.uint8)), tmp_path / "x.tiff")


class TestContainers:
    def test_linear_image_rejects_negative_and_nan(self):
        with pytest.raises(FormatError):
            LinearImage(np.full((1, 1, 3), -1.0, dtype=np.float32))
        with pytest.raises(FormatError):
            LinearImage(np.full((1, 1, 3), np.nan, dtype=np.float32))

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

    def test_other_suffix_is_format_error(self, tmp_path):
        img = LinearImage(np.ones((2, 2, 3), dtype=np.float32))
        path = tmp_path / "img.exr"
        with pytest.raises(FormatError):
            write_linear(img, path)
        assert not path.exists()
        write_pfm(img, path)
        with pytest.raises(FormatError):
            read_linear(path)
