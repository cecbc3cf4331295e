"""Image/Sinogram containers and field-of-view helpers."""

import numpy as np
import pytest

from sinoquad.geometry import FOV_FRACTION, Image, Sinogram, fov_mask, fov_radius, view_angles_deg


class TestValidation:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            Image(np.zeros((2, 2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Image(np.array([[1.0, np.inf]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            Sinogram(np.array([[-0.5, 1.0]]))

    @pytest.mark.parametrize("make", [Image, Sinogram])
    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)])
    def test_rejects_empty(self, make, shape):
        with pytest.raises(ValueError, match="empty"):
            make(np.zeros(shape, dtype=np.float32))

    def test_integer_input_becomes_float32(self):
        img = Image(np.arange(4, dtype=np.int64).reshape(2, 2))
        assert img.data.dtype == np.float32

    def test_float64_preserved(self):
        img = Image(np.zeros((2, 2), dtype=np.float64))
        assert img.data.dtype == np.float64

    @pytest.mark.parametrize("kwargs", [
        {"pixel_size": 0.0},
        {"pixel_size": -1.0},
        {"pixel_size": np.inf},
        {"pixel_size": np.nan},
    ])
    def test_image_pixel_size_positive(self, kwargs):
        with pytest.raises(ValueError, match="pixel_size"):
            Image(np.zeros((2, 2)), **kwargs)

    @pytest.mark.parametrize("kwargs,hint", [
        ({"angular_range_deg": 0.0}, "angular_range_deg"),
        ({"angular_range_deg": -90.0}, "angular_range_deg"),
        ({"bin_width": 0.0}, "bin_width"),
        ({"start_angle_deg": np.inf}, "start_angle_deg"),
        ({"start_angle_deg": np.nan}, "start_angle_deg"),
        ({"angular_range_deg": np.inf}, "angular_range_deg"),
        ({"angular_range_deg": np.nan}, "angular_range_deg"),
        ({"bin_width": np.inf}, "bin_width"),
        ({"bin_width": np.nan}, "bin_width"),
    ])
    def test_sinogram_field_validation(self, kwargs, hint):
        with pytest.raises(ValueError, match=hint):
            Sinogram(np.zeros((2, 2)), **kwargs)


def angles_of(sino):
    return view_angles_deg(sino.n_angles, sino.start_angle_deg, sino.angular_range_deg)


class TestSinogramAngles:
    def test_default_full_circle(self):
        sino = Sinogram(np.zeros((4, 3)))
        np.testing.assert_allclose(angles_of(sino), [0.0, 90.0, 180.0, 270.0])

    def test_offset_half_circle(self):
        sino = Sinogram(np.zeros((2, 3)), start_angle_deg=10.0, angular_range_deg=180.0)
        np.testing.assert_allclose(angles_of(sino), [10.0, 100.0])

    def test_endpoint_excluded(self):
        sino = Sinogram(np.zeros((8, 3)))
        assert angles_of(sino).max() < 360.0

    def test_properties(self):
        sino = Sinogram(np.zeros((4, 3)))
        assert sino.n_angles == 4
        assert sino.n_bins == 3


class TestFieldOfView:
    def test_radius_fraction(self):
        assert fov_radius(128) == pytest.approx(FOV_FRACTION * 128)
        assert fov_radius(128) == pytest.approx(61.44)

    def test_mask_contains_center_not_corners(self):
        mask = fov_mask(128, 128)
        assert mask[64, 64]
        assert not mask[0, 0] and not mask[127, 127]

    def test_mask_is_centred(self):
        mask = fov_mask(65, 65)
        np.testing.assert_array_equal(mask, mask[::-1, :])
        np.testing.assert_array_equal(mask, mask[:, ::-1])

    def test_area_close_to_disc(self):
        mask = fov_mask(256, 256)
        area = np.pi * fov_radius(256) ** 2
        assert abs(mask.sum() - area) / area < 0.01
