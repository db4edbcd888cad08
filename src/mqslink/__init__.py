"""Desk-scale simulator for resonant magneto-quasistatic coil links.

Models a two-coil inductive link - a necklace-worn transmit coil
driving a contact-lens receive coil - from wound geometry to link
budget: lumped coil parameters, mutual inductance under arbitrary
misalignment by filament integration, the series-series resonant
two-mesh response, and the resulting power and channel-capacity
figures. No field solver required; everything runs in seconds on a
laptop.
"""

from .cli import (ConfigError, RunReport, ScenarioConfig, main, parse_config,
                  run_scenario)
from .circuit import (LinkCircuit, Spectrum, frequency_sweep, path_loss_db,
                      received_power, receiver_capacitance, tune_capacitance,
                      tx_power)
from .constants import MU0
from .field_coupling import (ConvergenceError, CouplingResult,
                             SeparationError, SingularEvaluationError,
                             b_field, coupling_coefficient, field_map,
                             mutual_inductance)
from .geometry import (FLAT_SPIRAL, HELICAL, CoilSpec, FilamentCoil, Pose,
                       Scenario, apply_pose, build_filament_coil,
                       scenario_poses, turn_radii, winding_curve)
from .link_analysis import (POWER, VOLTAGE, CapacityReport, DualModeReport,
                            SweepResult, TruncatedBandError, capacity_report,
                            capacity_vs_bandwidth, channel_capacity,
                            dual_mode_report, misalignment_sweep,
                            resistance_sweep, scenario_link,
                            scenario_mutual_inductance, snr_db)
from .lumped import (ac_resistance, current_sheet_inductance,
                     estimate_inductance, skin_depth, wheeler_inductance)

__version__ = "0.1.0"
