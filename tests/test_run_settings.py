"""One home for each run setting: the link layer takes the frequency
grid, the dual-mode loads, the noise floor and the SNR convention from
its caller (`mqslink defaults` states the nominal ones), and a capacity
report computes the SNR and capacity that follow from its inputs."""

import inspect

from mqslink import circuit, link_analysis
from mqslink.link_analysis import CapacityReport

RUN_SETTINGS = {"grid", "r_load_grid", "noise_floor_dbv", "convention"}


def _public_callables():
    for module in (circuit, link_analysis):
        for name, value in vars(module).items():
            if (inspect.isfunction(value) and not name.startswith("_")
                    and value.__module__ == module.__name__):
                yield f"{module.__name__}.{name}", value
    yield "CapacityReport", CapacityReport.__init__


def test_no_link_function_defaults_a_run_setting():
    taking = {}
    for name, fn in _public_callables():
        for param in inspect.signature(fn).parameters.values():
            if param.name in RUN_SETTINGS:
                taking.setdefault(name, []).append(param)
    # the scan sees the functions it guards
    assert {"mqslink.circuit.frequency_sweep", "mqslink.link_analysis.dual_mode_report",
            "mqslink.link_analysis.misalignment_sweep", "CapacityReport"} <= set(taking)
    defaulted = [f"{name}({param.name}={param.default!r})"
                 for name, params in taking.items() for param in params
                 if param.default is not param.empty]
    assert defaulted == []


def test_a_capacity_report_takes_neither_its_snr_nor_its_capacity():
    params = inspect.signature(CapacityReport.__init__).parameters
    assert sorted({"snr_db", "capacity_bps"} & set(params)) == []
