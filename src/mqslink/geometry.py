"""Filament models of spiral coils and their placement in the link scenario.

World frame convention (fixed throughout the package): z is vertical, x is
forward (from the transmitter center toward the receiver), y is lateral.
A coil is built in its local frame with the winding in the z=0 plane and the
coil axis along +z; a Pose then tilts it about the lateral y axis and
translates it. Tilt 0 means the coil plane is horizontal with a vertical
axis; tilt 90 points the axis along +x.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .constants import COPPER_CONDUCTIVITY

FLAT_SPIRAL = "flat-spiral"
HELICAL = "helical"

# sphere radius used for helical coils when the spec does not supply one (m)
DEFAULT_SPHERE_RADIUS = 12e-3

TX_ANGLE = "tx_angle"
LATERAL = "lateral"
AXIAL = "axial"

# each misalignment axis: the Scenario field it moves and that field's
# documented domain and unit; check_placement states the domain's rule
SWEEP_RANGES = {
    TX_ANGLE: ("tx_angle_deg", 0.0, 90.0, "deg"),
    LATERAL: ("x_eye", 0.0, 0.200, "m"),
    AXIAL: ("z_eye", 0.050, 0.300, "m"),
}

# the most float64 values numpy can hold in one array (2^60 - 1 on a
# 64-bit machine): no count may ask for more
MOST_VALUES = np.iinfo(np.intp).max // 8


def check_placement(axis: str, name: str, value: float) -> None:
    """Refuse a value outside the domain of SWEEP_RANGES[axis] with a
    ValueError that starts with name."""
    _, lo, hi, unit = SWEEP_RANGES[axis]
    if not lo <= value <= hi:
        raise ValueError(f"{name} must lie within [{lo:g}, {hi:g}] {unit}, got {value!r}")


@functools.cache
def _init_names(cls) -> tuple:
    """The names of the dataclass cls's init fields, in declared order."""
    return tuple(f.name for f in fields(cls) if f.init)


def check_fields(value, positive=(), nonnegative=(), counts=None, ordered=(),
                 choices=None) -> None:
    """Apply a record's finiteness, choice, count, sign and order rules to
    the dataclass instance value; each ValueError starts with the field's
    name.

    Only init fields are checked (a record derives the others). Every
    float field (Python or numpy) must be finite. Then, in the order the
    fields are declared, each field named in choices (a dict of field ->
    its values) must hold one of them, each field named in counts (a
    dict of field -> least value) must be an integer (Python or numpy,
    not a bool) at least that value and at most MOST_VALUES, and each
    field named in positive must be > 0 and each in nonnegative >= 0,
    unless it is None. Last, each (high, op, low) in ordered, op being
    ">" or ">=", must hold between two fields.
    """
    names = _init_names(type(value))
    for name in names:
        x = getattr(value, name)
        if isinstance(x, (float, np.floating)) and not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x!r}")
    for name in names if positive or nonnegative or counts or choices else ():
        x = getattr(value, name)
        allowed = (choices or {}).get(name)
        if allowed is not None and x not in allowed:
            raise ValueError(f"{name} must be one of {', '.join(map(repr, allowed))}, "
                             f"got {x!r}")
        least = (counts or {}).get(name)
        if least is not None and (isinstance(x, bool) or not isinstance(x, (int, np.integer))
                                  or x < least):
            raise ValueError(f"{name} must be an integer >= {least}, got {x!r}")
        if least is not None and x > MOST_VALUES:
            raise ValueError(f"{name} must be at most {MOST_VALUES}, got {x!r}")
        if x is not None and name in positive and not x > 0:
            raise ValueError(f"{name} must be > 0, got {x!r}")
        if x is not None and name in nonnegative and not x >= 0:
            raise ValueError(f"{name} must be >= 0, got {x!r}")
    for high, op, low in ordered:
        a, b = getattr(value, low), getattr(value, high)
        if not (b > a if op == ">" else b >= a):
            raise ValueError(f"{high} must be {op} {low}, got [{a!r}, {b!r}]")


@dataclass(frozen=True)
class CoilSpec:
    """A multi-turn spiral coil: its geometry, material and measured values.

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
        Sphere radius for the helical shape (m). Defaults to 12 mm. It
        must exceed the outermost turn radius, where the winding's sag
        would otherwise turn vertical. A flat spiral takes none.
    conductivity : float
        Wire conductivity sigma (S/m). Default is copper.
    parasitic_capacitance : float, optional
        Measured self-capacitance (F). There is no predictive model for
        it here; when supplied it is placed in parallel with the coil by
        the circuit solver.
    inductance_override, resistance_override : float, optional
        Measured inductance (H) and series loss (ohm, constant over
        frequency); when supplied they replace the current-sheet value
        and the skin-effect resistance.
    """

    turns: int
    inner_radius: float
    wire_diameter: float
    wire_spacing: float
    shape: str = FLAT_SPIRAL
    sphere_radius: Optional[float] = None
    conductivity: float = COPPER_CONDUCTIVITY
    parasitic_capacitance: Optional[float] = None
    inductance_override: Optional[float] = None
    resistance_override: Optional[float] = None

    def __post_init__(self):
        check_fields(self, positive=("inner_radius", "wire_diameter", "sphere_radius",
                                     "conductivity", "parasitic_capacitance",
                                     "inductance_override"),
                     nonnegative=("wire_spacing", "resistance_override"),
                     counts={"turns": 1}, choices={"shape": (FLAT_SPIRAL, HELICAL)})
        if self.shape == FLAT_SPIRAL and self.sphere_radius is not None:
            raise ValueError(f"sphere_radius {self.sphere_radius!r} is for the helical shape only")
        if self.shape == HELICAL:
            r_max = float(turn_radii(self)[-1])
            if self.sphere <= r_max:
                raise ValueError(
                    f"sphere_radius {self.sphere!r} must exceed the outermost "
                    f"turn radius {r_max!r}"
                )

    @property
    def sphere(self) -> float:
        """The helical shape's sphere radius: sphere_radius, or DEFAULT_SPHERE_RADIUS (m)."""
        return DEFAULT_SPHERE_RADIUS if self.sphere_radius is None else self.sphere_radius

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
        check_fields(self)

    def rotation_matrix(self) -> np.ndarray:
        """3x3 rotation about y by tilt_angle_deg (right-handed, det +1)."""
        t = math.radians(self.tilt_angle_deg)
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


@dataclass(frozen=True, eq=False)
class FilamentCoil:
    """A coil's winding placed in the world: its spec plus a pose.

    ``local`` evaluates the exact winding ``spec`` describes at any
    angle in the frame ``rotation`` and ``origin`` place in the world
    (world = rotation @ local + origin); ``curve`` gives it in the world.
    Fields, M, the wire masks and the separation check read a coil only
    through its curve attributes, so its parametrization lives here.
    """

    spec: CoilSpec
    # accepted (>= 16) and counted by n_segments, but it changes no
    # result; both go with the benchmark's own upkeep (ROADMAP, "Benchmark upkeep")
    segments_per_turn: int
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))   # (3, 3)
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))   # (3,) m

    def __post_init__(self):
        check_fields(self, counts={"segments_per_turn": 16})
        for name in ("rotation", "origin"):
            arr = np.array(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite, got {arr.tolist()!r}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def axis(self) -> np.ndarray:
        """(3,) unit coil axis: the local +z in the world."""
        return self.rotation[:, 2]

    @property
    def wire_diameter(self) -> float:
        """Exclusion diameter for field evaluation (m)."""
        return self.spec.wire_diameter

    @property
    def n_segments(self) -> int:
        """turns * segments_per_turn."""
        return self.spec.turns * self.segments_per_turn

    @functools.cached_property
    def breaks(self) -> np.ndarray:
        """(pieces + 1,) read-only, ascending ends of the winding angle's
        smooth pieces (rad): for a spiral, its turns' ends 2 pi k, k = 0..N."""
        breaks = 2.0 * math.pi * np.arange(self.spec.turns + 1)
        breaks.setflags(write=False)
        return breaks

    @functools.cached_property
    def top_speed(self) -> float:
        """The largest |d curve/d phi| on any piece (m/rad): the outer end's, as r and sag grow."""
        return float(np.linalg.norm(self.local(self.breaks[-1:])[1]))

    @property
    def radii(self) -> np.ndarray:
        """(turns,) radii of the turns (m); see turn_radii."""
        return turn_radii(self.spec)

    def local(self, phi) -> tuple[np.ndarray, np.ndarray]:
        """Local points and d/dphi tangents of the exact winding at phi (rad),
        from 0 at the inner end to breaks[-1] at the outer end; see winding_curve."""
        return winding_curve(self.spec, phi)

    def curve(self, phi) -> tuple[np.ndarray, np.ndarray]:
        """World points and d/dphi tangents of the exact winding at phi."""
        points, tangents = self.local(phi)
        return points @ self.rotation.T + self.origin, tangents @ self.rotation.T


@dataclass(frozen=True)
class Scenario:
    """The necklace-to-lens link: two coil specs, their relative
    placement, and the circuit terminations and source.

    Each coil's measured values (inductance, loss, self-capacitance)
    sit on its CoilSpec. The receiver axis is horizontal (perpendicular
    to the untilted transmitter axis) by construction, matching the worn
    geometry: the lens faces forward while the necklace hangs roughly
    horizontally.
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

    def __post_init__(self):
        check_fields(self, positive=("r_source", "r_load", "tuned_frequency", "v_source"))
        for axis, (name, *_) in SWEEP_RANGES.items():
            check_placement(axis, name, getattr(self, name))


def turn_radii(spec: CoilSpec) -> np.ndarray:
    """Per-turn radii: inner_radius + i*(d+s) for i = 0..N-1 (m)."""
    return spec.inner_radius + np.arange(spec.turns) * spec.pitch


def winding_curve(spec: CoilSpec, phi) -> tuple[np.ndarray, np.ndarray]:
    """Points and d/dphi tangents of a coil's winding, in its local frame.

    The flat spiral's radius grows linearly with the winding angle,
    r(phi) = r_0 + (r_last - r_0) * phi / (2 pi N), from the first to
    the last turn radius. Turn i's mean radius is therefore its
    mid-angle value r_0 + (r_last - r_0) (i + 1/2) / N, not its nominal
    turn_radii value (4.2548 mm against 4.000 mm for the first turn of
    a 5-turn coil from 4 mm at a 0.637 mm pitch); only the sum over all
    turns matches, and the middle turn when N is odd. The helical shape
    is the same winding projected onto a sphere of ``sphere_radius``:
    the projected radius is unchanged and the point sags along -z by
    z = -(R - sqrt(R^2 - r^2)).

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
        root = np.sqrt(spec.sphere**2 - r**2)
        z = -(spec.sphere - root)
        # the sag turns vertical where the winding meets the equator
        with np.errstate(divide="ignore", invalid="ignore"):
            dz = -slope * r / root
    cos, sin = np.cos(phi), np.sin(phi)
    points = np.column_stack([r * cos, r * sin, z])
    tangents = np.column_stack([slope * cos - r * sin, slope * sin + r * cos, dz])
    return points, tangents


def build_filament_coil(spec: CoilSpec, segments_per_turn: int) -> FilamentCoil:
    """The coil of `spec` in its local frame. `segments_per_turn` (at
    least 16) is kept for its callers and changes no result."""
    return FilamentCoil(spec, segments_per_turn)


def apply_pose(coil: FilamentCoil, pose: Pose) -> FilamentCoil:
    """Rotate then translate a filament coil; lengths are preserved."""
    rot = pose.rotation_matrix()
    center = np.asarray(pose.center)
    return replace(coil, rotation=rot @ coil.rotation,
                   origin=coil.origin @ rot.T + center)


def scenario_poses(sc: Scenario) -> tuple[Pose, Pose]:
    """Poses for the scenario: Tx at the origin tilted by tx_angle about
    the lateral axis; Rx at (x_eye, 0, z_eye) with its axis along +x."""
    tx_pose = Pose(center=(0.0, 0.0, 0.0), tilt_angle_deg=sc.tx_angle_deg)
    rx_pose = Pose(center=(sc.x_eye, 0.0, sc.z_eye), tilt_angle_deg=90.0)
    return tx_pose, rx_pose
