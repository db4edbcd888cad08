"""Filament models of spiral coils and their placement in the link scenario.

World frame convention (fixed throughout the package): z is vertical, x is
forward (from the transmitter center toward the receiver), y is lateral.
A coil is built in its local frame with the winding in the z=0 plane and the
coil axis along +z; a Pose then tilts it about the lateral y axis and
translates it. Tilt 0 means the coil plane is horizontal with a vertical
axis; tilt 90 points the axis along +x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import COPPER_CONDUCTIVITY

FLAT_SPIRAL = "flat-spiral"
HELICAL = "helical"

# sphere radius used for helical coils when the spec does not supply one (m)
DEFAULT_SPHERE_RADIUS = 12e-3


@dataclass(frozen=True)
class CoilSpec:
    """Geometric and material description of a multi-turn spiral coil.

    Parameters
    ----------
    turns : int
        Number of turns N, at least 1.
    inner_radius : float
        Radius of the innermost turn (m).
    wire_diameter : float
        Conductor diameter d (m). Gauge tables are not interpreted; pass
        the diameter directly (36 AWG is 0.137 mm).
    wire_spacing : float
        Edge-to-edge gap s between adjacent turns (m), may be zero.
    shape : str
        "flat-spiral" (planar) or "helical" (winding projected onto a
        sphere, as for a coil moulded onto a contact lens).
    sphere_radius : float, optional
        Sphere radius for the helical shape (m). Defaults to 12 mm.
    conductivity : float
        Wire conductivity sigma (S/m). Default is copper.
    parasitic_capacitance : float, optional
        Measured self-capacitance (F). There is no predictive model for
        it here; when supplied it is placed in parallel with the coil by
        the circuit solver.
    """

    turns: int
    inner_radius: float
    wire_diameter: float
    wire_spacing: float
    shape: str = FLAT_SPIRAL
    sphere_radius: Optional[float] = None
    conductivity: float = COPPER_CONDUCTIVITY
    parasitic_capacitance: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.turns, int) or self.turns < 1:
            raise ValueError(f"turns must be an integer >= 1, got {self.turns!r}")
        if self.inner_radius <= 0:
            raise ValueError(f"inner_radius must be > 0, got {self.inner_radius!r}")
        if self.wire_diameter <= 0:
            raise ValueError(f"wire_diameter must be > 0, got {self.wire_diameter!r}")
        if self.wire_spacing < 0:
            raise ValueError(f"wire_spacing must be >= 0, got {self.wire_spacing!r}")
        if self.shape not in (FLAT_SPIRAL, HELICAL):
            raise ValueError(f"shape must be {FLAT_SPIRAL!r} or {HELICAL!r}, got {self.shape!r}")
        if self.conductivity <= 0:
            raise ValueError(f"conductivity must be > 0, got {self.conductivity!r}")
        if self.sphere_radius is not None and self.sphere_radius <= 0:
            raise ValueError(f"sphere_radius must be > 0, got {self.sphere_radius!r}")
        if self.parasitic_capacitance is not None and self.parasitic_capacitance <= 0:
            raise ValueError(
                f"parasitic_capacitance must be > 0, got {self.parasitic_capacitance!r}"
            )
        if self.shape == HELICAL:
            # the outermost turn must still fit on the sphere
            r_sphere = self.sphere_radius if self.sphere_radius is not None else DEFAULT_SPHERE_RADIUS
            r_max = self.inner_radius + (self.turns - 1) * self.pitch
            if r_sphere < r_max:
                raise ValueError(
                    f"sphere_radius {r_sphere!r} is smaller than the outermost "
                    f"turn radius {r_max!r}"
                )

    @property
    def pitch(self) -> float:
        """Radial advance per turn, d + s (m)."""
        return self.wire_diameter + self.wire_spacing

    @property
    def inner_diameter(self) -> float:
        return 2.0 * self.inner_radius

    @property
    def outer_diameter(self) -> float:
        """D_o = 2*inner_radius + 2*N*(d+s) (m)."""
        return 2.0 * self.inner_radius + 2.0 * self.turns * self.pitch


@dataclass(frozen=True)
class Pose:
    """Rigid placement: tilt about the lateral y axis, then translate.

    tilt_angle_deg = 0 leaves the coil plane horizontal (axis +z);
    tilt_angle_deg = 90 points the coil axis along +x (forward).
    """

    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    tilt_angle_deg: float = 0.0

    def __post_init__(self):
        c = tuple(float(v) for v in self.center)
        if len(c) != 3 or not all(math.isfinite(v) for v in c):
            raise ValueError(f"center must be a finite 3-vector, got {self.center!r}")
        object.__setattr__(self, "center", c)
        if not math.isfinite(self.tilt_angle_deg):
            raise ValueError(f"tilt_angle_deg must be finite, got {self.tilt_angle_deg!r}")

    def rotation_matrix(self) -> np.ndarray:
        """3x3 rotation about y by tilt_angle_deg (right-handed, det +1)."""
        t = math.radians(self.tilt_angle_deg)
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


@dataclass(frozen=True, eq=False)
class FilamentCoil:
    """Polyline discretization of a posed coil.

    ``points`` are the (P, 3) polyline vertices; segment i runs from
    points[i] to points[i+1], so consecutive segments share a vertex and
    the path is connected by construction. ``turn_centers`` and ``axis``
    describe the per-turn spanning disks used for flux integration.
    ``spec``, when known, is the winding the polyline samples, and
    ``rotation`` and ``origin`` place that winding's local frame in the
    world (world = rotation @ local + origin), so ``curve`` can evaluate
    the exact winding at any angle.
    """

    points: np.ndarray            # (P, 3) vertices, m
    turn_radii: np.ndarray        # (N,) per-turn radii, m
    turn_centers: np.ndarray      # (N, 3) disk centers, m
    axis: np.ndarray              # (3,) unit coil axis
    wire_length: float            # m
    wire_diameter: float          # m, exclusion radius for field evaluation
    spec: Optional[CoilSpec] = None
    rotation: Optional[np.ndarray] = None   # (3, 3), identity when None
    origin: Optional[np.ndarray] = None     # (3,) m, zero when None

    def __post_init__(self):
        if self.rotation is None:
            object.__setattr__(self, "rotation", np.eye(3))
        if self.origin is None:
            object.__setattr__(self, "origin", np.zeros(3))
        for name in ("points", "turn_radii", "turn_centers", "axis",
                     "rotation", "origin"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.points.ndim != 2 or self.points.shape[1] != 3 or len(self.points) < 2:
            raise ValueError("points must be an (P, 3) array with P >= 2")
        if len(self.turn_centers) != len(self.turn_radii):
            raise ValueError("turn_centers and turn_radii must have equal length")

    @property
    def n_segments(self) -> int:
        return len(self.points) - 1

    @property
    def segment_starts(self) -> np.ndarray:
        return self.points[:-1]

    @property
    def segment_ends(self) -> np.ndarray:
        return self.points[1:]

    def curve(self, phi) -> tuple[np.ndarray, np.ndarray]:
        """World points and d/dphi tangents of the exact winding at phi.

        phi (rad) runs from 0 at the inner end to 2*pi*turns at the
        outer end; see winding_curve. A coil built without its spec has
        no curve and raises ValueError.
        """
        if self.spec is None:
            raise ValueError("coil carries no winding curve: it was built "
                             "without a CoilSpec")
        points, tangents = winding_curve(self.spec, phi)
        return points @ self.rotation.T + self.origin, tangents @ self.rotation.T


@dataclass(frozen=True)
class Scenario:
    """The necklace-to-lens link: two coil specs, relative placement, and
    the circuit terminations used by downstream analyses.

    The receiver axis is horizontal (perpendicular to the untilted
    transmitter axis) by construction, matching the worn geometry: the
    lens faces forward while the necklace hangs roughly horizontally.
    """

    tx: CoilSpec
    rx: CoilSpec
    x_eye: float                 # lateral offset of the eye, m
    z_eye: float                 # axial (vertical) offset, m
    tx_angle_deg: float          # necklace tilt, deg
    r_source: float = 50.0       # ohm
    r_load: float = 1000.0       # ohm
    tuned_frequency: float = 26e6  # Hz
    v_source: float = 1.0        # V peak
    # measured inductances, when available, replace the formula values
    l_tx_override: Optional[float] = None   # H
    l_rx_override: Optional[float] = None   # H

    def __post_init__(self):
        if self.x_eye < 0:
            raise ValueError(f"x_eye must be >= 0, got {self.x_eye!r}")
        if self.z_eye < 0:
            raise ValueError(f"z_eye must be >= 0, got {self.z_eye!r}")
        if not 0.0 <= self.tx_angle_deg <= 90.0:
            raise ValueError(f"tx_angle_deg must be in [0, 90], got {self.tx_angle_deg!r}")
        for name in ("r_source", "r_load", "tuned_frequency", "v_source"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        for name in ("l_tx_override", "l_rx_override"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be > 0 when given, got {value!r}")


def turn_radii(spec: CoilSpec) -> np.ndarray:
    """Per-turn radii: inner_radius + i*(d+s) for i = 0..N-1 (m)."""
    return spec.inner_radius + np.arange(spec.turns) * spec.pitch


def winding_curve(spec: CoilSpec, phi) -> tuple[np.ndarray, np.ndarray]:
    """Points and d/dphi tangents of a coil's winding, in its local frame.

    The flat spiral's radius grows linearly with the winding angle,
    r(phi) = r_0 + (r_last - r_0) * phi / (2 pi N), from the first to
    the last turn radius, so each turn's mean radius equals its nominal
    turn radius. The helical shape is the same winding projected onto a
    sphere of ``sphere_radius``: the projected radius is unchanged and
    the point sags along -z by z = -(R - sqrt(R^2 - r^2)).

    phi is an array of angles (rad) on [0, 2 pi N]; both results have
    shape (len(phi), 3).
    """
    phi = np.asarray(phi, dtype=float)
    radii = turn_radii(spec)
    slope = (radii[-1] - radii[0]) / (2.0 * math.pi * spec.turns)    # dr/dphi
    # not radii[0] + slope * phi: this grouping is the rounding the
    # frozen polyline values were computed with
    r = radii[0] + (radii[-1] - radii[0]) * (phi / (2.0 * math.pi * spec.turns))
    z = dz = np.zeros_like(r)
    if spec.shape == HELICAL:
        r_sphere = spec.sphere_radius if spec.sphere_radius is not None else DEFAULT_SPHERE_RADIUS
        root = np.sqrt(r_sphere**2 - r**2)
        z = -(r_sphere - root)
        # the sag turns vertical where the winding meets the equator
        with np.errstate(divide="ignore", invalid="ignore"):
            dz = -slope * r / root
    cos, sin = np.cos(phi), np.sin(phi)
    points = np.column_stack([r * cos, r * sin, z])
    tangents = np.column_stack([slope * cos - r * sin, slope * sin + r * cos, dz])
    return points, tangents


def build_filament_coil(spec: CoilSpec, segments_per_turn: int = 720) -> FilamentCoil:
    """Discretize a coil spec into a filament polyline in its local frame.

    The vertices sample winding_curve at equal angle steps; the coil
    keeps its spec so the exact curve stays available downstream.

    Parameters
    ----------
    spec : CoilSpec
    segments_per_turn : int
        Straight segments per turn; at least 16. The default 720 keeps
        the polyline's field error comfortably below 0.1%.
    """
    if segments_per_turn < 16:
        raise ValueError(
            f"segments_per_turn must be >= 16, got {segments_per_turn!r}"
        )
    n_seg = spec.turns * segments_per_turn
    phi = np.linspace(0.0, 2.0 * math.pi * spec.turns, n_seg + 1)
    points, _ = winding_curve(spec, phi)
    z = points[:, 2]

    seg_lengths = np.linalg.norm(np.diff(points, axis=0), axis=1)
    wire_length = float(np.sum(seg_lengths))

    # one spanning disk per turn, at the turn's mean height
    centers = np.zeros((spec.turns, 3))
    for i in range(spec.turns):
        turn_z = z[i * segments_per_turn : (i + 1) * segments_per_turn + 1]
        centers[i, 2] = float(np.mean(turn_z))

    return FilamentCoil(
        points=points,
        turn_radii=turn_radii(spec),
        turn_centers=centers,
        axis=np.array([0.0, 0.0, 1.0]),
        wire_length=wire_length,
        wire_diameter=spec.wire_diameter,
        spec=spec,
    )


def apply_pose(coil: FilamentCoil, pose: Pose) -> FilamentCoil:
    """Rotate then translate a filament coil; lengths are preserved."""
    rot = pose.rotation_matrix()
    center = np.asarray(pose.center)
    return FilamentCoil(
        points=coil.points @ rot.T + center,
        turn_radii=coil.turn_radii,
        turn_centers=coil.turn_centers @ rot.T + center,
        axis=coil.axis @ rot.T,
        wire_length=coil.wire_length,
        wire_diameter=coil.wire_diameter,
        spec=coil.spec,
        rotation=rot @ coil.rotation,
        origin=coil.origin @ rot.T + center,
    )


def scenario_poses(sc: Scenario) -> tuple[Pose, Pose]:
    """Poses for the scenario: Tx at the origin tilted by tx_angle about
    the lateral axis; Rx at (x_eye, 0, z_eye) with its axis along +x."""
    tx_pose = Pose(center=(0.0, 0.0, 0.0), tilt_angle_deg=sc.tx_angle_deg)
    rx_pose = Pose(center=(sc.x_eye, 0.0, sc.z_eye), tilt_angle_deg=90.0)
    return tx_pose, rx_pose
