"""Fixed spherical camera rig: 5 rings x 12 azimuths looking at the origin."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

N_RINGS = 5
N_AZIMUTHS = 12
N_VIEWS = N_RINGS * N_AZIMUTHS

#: Distance of every camera from the origin, outside the unit cube's circumsphere (sqrt(3) / 2).
RADIUS = 2.0

_HALF_SQRT3 = math.sqrt(3.0) / 2.0
_FIRST_QUADRANT = {0: (1.0, 0.0), 30: (_HALF_SQRT3, 0.5), 60: (0.5, _HALF_SQRT3), 90: (0.0, 1.0)}


def exact_trig(angle_deg: int) -> tuple[float, float]:
    """(cos, sin) for a multiple of 30 degrees.

    Built from first-quadrant constants by sign flips so that mirrored angles
    negate bit-exactly (libm would round each angle independently).
    """
    if angle_deg % 30 != 0:
        raise ValueError(f"angle must be a multiple of 30 degrees, got {angle_deg}")
    a = angle_deg % 360
    if a <= 90:
        c, s = _FIRST_QUADRANT[a]
    elif a <= 180:
        c, s = _FIRST_QUADRANT[180 - a]
        c = -c
    elif a <= 270:
        c, s = _FIRST_QUADRANT[a - 180]
        c, s = -c, -s
    else:
        c, s = _FIRST_QUADRANT[360 - a]
        s = -s
    return c, s


@dataclass(frozen=True)
class Viewpoint:
    """One camera position on the view sphere, looking at the origin.

    ``ring`` indexes pitch (0..4, top to bottom) and ``azimuth`` indexes yaw
    (0..11, counterclockwise from +x seen from +z).
    """

    ring: int
    azimuth: int

    def __post_init__(self):
        if not 0 <= self.ring < N_RINGS:
            raise ValueError(f"ring must be in 0..{N_RINGS - 1}, got {self.ring}")
        if not 0 <= self.azimuth < N_AZIMUTHS:
            raise ValueError(f"azimuth must be in 0..{N_AZIMUTHS - 1}, got {self.azimuth}")

    @property
    def phi_deg(self) -> int:
        """Pitch angle from the +z axis, degrees."""
        return 30 * (self.ring + 1)

    @property
    def theta_deg(self) -> int:
        """Yaw angle from +x, counterclockwise seen from +z, degrees."""
        return 30 * self.azimuth

    @property
    def index(self) -> int:
        return N_AZIMUTHS * self.ring + self.azimuth

    @property
    def position(self) -> np.ndarray:
        cp, sp = exact_trig(self.phi_deg)
        ct, st = exact_trig(self.theta_deg)
        return np.array([RADIUS * sp * ct, RADIUS * sp * st, RADIUS * cp])

    def camera_frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Orthonormal (right, up, toward) basis of the camera.

        ``toward`` points from the camera at the origin; ``up`` is world +z
        projected onto the image plane (well defined because no ring sits at
        the poles).
        """
        cp, sp = exact_trig(self.phi_deg)
        ct, st = exact_trig(self.theta_deg)
        zx, zy, zz = sp * ct, sp * st, cp  # unit vector origin -> camera
        s = math.hypot(zx, zy)  # = sin(phi) > 0 on every ring
        rx, ry, rz = -zy / s, zx / s, 0.0
        # up = cross(z, right), written out; right_z is identically zero
        ux = -zz * ry
        uy = zz * rx
        uz = zx * ry - zy * rx
        right = np.array([rx, ry, rz])
        up = np.array([ux, uy, uz])
        toward = np.array([-zx, -zy, -zz])
        return right, up, toward


def index_of(ring: int, azimuth: int) -> int:
    """Flat view index of grid cell (ring, azimuth); row-major by ring."""
    return Viewpoint(ring, azimuth).index


def viewpoint_from_index(index: int) -> Viewpoint:
    """Inverse of :func:`index_of`: view index -> Viewpoint."""
    if not 0 <= index < N_VIEWS:
        raise ValueError(f"view index must be in 0..{N_VIEWS - 1}, got {index}")
    return Viewpoint(ring=index // N_AZIMUTHS, azimuth=index % N_AZIMUTHS)


def antipode(view: Viewpoint) -> Viewpoint:
    """The view through the origin from ``view``: ring ``4 - r``, azimuth ``j + 6``.

    Its pitch is ``180 - phi`` and its yaw ``theta + 180``. :func:`exact_trig`
    returns ``(-cos, sin)`` of ``phi`` for the first and ``(-cos, -sin)`` of
    ``theta`` for the second, exactly, so the antipode's ``position`` and its
    ``right`` and ``toward`` axes are ``view``'s negated, and its ``up`` axis
    is ``view``'s, value for value (a zero may change sign).
    """
    return Viewpoint(N_RINGS - 1 - view.ring, (view.azimuth + N_AZIMUTHS // 2) % N_AZIMUTHS)


def build_rig() -> list[Viewpoint]:
    """All 60 viewpoints ordered by index (ring-major, then azimuth)."""
    return [Viewpoint(k, j) for k in range(N_RINGS) for j in range(N_AZIMUTHS)]
