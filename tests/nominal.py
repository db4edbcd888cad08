"""The nominal link of the tests, stated once: the two build coils, the
pose of `mqslink defaults`, its run settings, and the values pinned on
that link. A change of coil geometry re-pins them here."""

from dataclasses import replace

import numpy as np

from mqslink.geometry import CoilSpec, Scenario

RX = CoilSpec(turns=5, inner_radius=4e-3, wire_diameter=0.137e-3,
              wire_spacing=0.5e-3)
TX = CoilSpec(turns=5, inner_radius=60e-3, wire_diameter=0.137e-3,
              wire_spacing=0.5e-3)
PLACEMENT = dict(x_eye=92e-3, z_eye=150e-3, tx_angle_deg=40.0)

L_TX = 35e-6                       # the tx's measured inductance_override
L_RX = 3.816942603467716e-07       # current-sheet value for the small coil
NOMINAL = Scenario(tx=replace(TX, inductance_override=L_TX), rx=RX, **PLACEMENT)

M_NOMINAL = 3.9074457990719537e-10    # _polyline_neumann, 360 segments/turn
PEAK_DB = -58.86457577086184          # tuned nominal link at 26 MHz; dBV at 1 V

# the run settings of `mqslink defaults`, which the library takes from
# its caller: the [frequency_grid], the [analysis] budget and the loads
# of an empty [dual_mode]
GRID = np.linspace(20e6, 30e6, 1001)              # Hz
GRID.setflags(write=False)
NOISE_FLOOR_DBV = -85.0
CONVENTION = "voltage"
DUAL_MODE_LOADS = np.geomspace(0.1, 10e3, 101)    # ohm
DUAL_MODE_LOADS.setflags(write=False)
BUDGET = dict(noise_floor_dbv=NOISE_FLOOR_DBV, convention=CONVENTION)
