"""The 160-telematics-app corpus of Tab. 12.

Composition follows §4.6: 38 apps "downloaded from Google Play" plus the
122 apps of the CANHunter dataset, of which

* 3 contain UDS / KWP 2000 formulas (the Carly family),
* the apps listed in Tab. 12 contain OBD-II formulas (with the table's
  per-app counts),
* 13 embed formulas the intraprocedural analysis cannot extract
  (cross-method read/processing),
* the remainder only read/clear DTCs or freeze frames — no formulas.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from .appgen import (
    FormulaSpec,
    kwp_spec_pool,
    make_complex_app,
    make_dtc_app,
    make_formula_app,
    make_reflection_app,
    make_substring_condition_app,
    obd2_spec_pool,
    uds_spec_pool,
)
from .extractor import ExtractedAppFormula, FormulaExtractor
from .ir import App

TOTAL_APPS = 160

#: Tab. 12 rows: app name -> {protocol: formula count}.
TABLE12_FORMULA_APPS: Dict[str, Dict[str, int]] = {
    "Carly for VAG": {"UDS": 90, "KWP 2000": 137},
    "Carly for Mercedes": {"UDS": 1624, "KWP 2000": 468},
    "Carly for Toyota": {"KWP 2000": 7},
    "inCarDoc": {"OBD-II": 82},
    "Car Computer - Olivia Drive": {"OBD-II": 74},
    "CarSys Scan": {"OBD-II": 64},
    "Easy OBD": {"OBD-II": 55},
    "inCarDoc Pro": {"OBD-II": 49},
    "OBD Boy(OBD2-ELM327)": {"OBD-II": 45},
    "FordSys Scan Free": {"OBD-II": 42},
    "ChevroSys Scan Free": {"OBD-II": 40},
    "ToyoSys Scan Free": {"OBD-II": 40},
    "Obd Mary": {"OBD-II": 34},
    "OBD2 Boost": {"OBD-II": 34},
    "Obd Harry Scan": {"OBD-II": 28},
    "Obd Arny": {"OBD-II": 27},
    "MOSX": {"OBD-II": 24},
    "Dr Prius Dr Hybrid": {"OBD-II": 22},
    "Dacar Pro OBD2": {"OBD-II": 21},
    "OBD2 Scanner Fault Codes Desc": {"OBD-II": 16},
    "Dacar Pro OBD2 (2)": {"OBD-II": 14},
    "Engie Easy Car Repair": {"OBD-II": 8},
    "PHEV Watchdog": {"OBD-II": 8},
    "Torque Lite(OBD2&Car)": {"OBD-II": 5},
    "Kiwi OBD": {"OBD-II": 3},
    "OBDclick": {"OBD-II": 2},
    "Dr Prius Dr Hybrid (2)": {"OBD-II": 1},
    "Fuel Economy for Torque Pro": {"OBD-II": 1},
}

#: The paper's 13 formulas-present-but-unextractable apps, split by cause:
#: cross-method data flow, reflective reads, partial-byte conditions.
N_CROSS_METHOD_APPS = 8
N_REFLECTION_APPS = 2
N_PARTIAL_CHECK_APPS = 3
N_COMPLEX_APPS = N_CROSS_METHOD_APPS + N_REFLECTION_APPS + N_PARTIAL_CHECK_APPS


def build_corpus(seed: int = 2022) -> List[App]:
    """Generate all 160 apps, deterministically."""
    rng = random.Random(seed)
    apps: List[App] = []
    for name, counts in TABLE12_FORMULA_APPS.items():
        specs: List[FormulaSpec] = []
        specs.extend(uds_spec_pool(rng, counts.get("UDS", 0)))
        specs.extend(kwp_spec_pool(rng, counts.get("KWP 2000", 0)))
        specs.extend(obd2_spec_pool(rng, counts.get("OBD-II", 0)))
        apps.append(make_formula_app(name, specs))
    for index in range(N_CROSS_METHOD_APPS):
        specs = obd2_spec_pool(rng, rng.randint(4, 12))
        apps.append(make_complex_app(f"Complex OBD Tool #{index + 1}", specs))
    for index in range(N_REFLECTION_APPS):
        specs = obd2_spec_pool(rng, rng.randint(3, 8))
        apps.append(make_reflection_app(f"Reflective Reader #{index + 1}", specs))
    for index in range(N_PARTIAL_CHECK_APPS):
        specs = obd2_spec_pool(rng, rng.randint(3, 8))
        apps.append(
            make_substring_condition_app(f"Partial Check Tool #{index + 1}", specs)
        )
    while len(apps) < TOTAL_APPS:
        apps.append(make_dtc_app(f"DTC Reader #{len(apps) + 1}", rng.randint(2, 6)))
    return apps


@dataclass
class CorpusAnalysis:
    """Result of running the extractor over the whole corpus."""

    per_app: Dict[str, Dict[str, int]]  # app -> protocol -> formula count
    formulas: List[ExtractedAppFormula]

    def total_formulas(self) -> int:
        return len(self.formulas)


def analyze_corpus(apps: List[App]) -> CorpusAnalysis:
    """Run Alg. 1 over every app and aggregate per-protocol counts."""
    extractor = FormulaExtractor()
    per_app: Dict[str, Dict[str, int]] = {}
    all_formulas: List[ExtractedAppFormula] = []
    for app in apps:
        formulas = extractor.extract(app)
        counts: Dict[str, int] = {}
        for formula in formulas:
            counts[formula.protocol] = counts.get(formula.protocol, 0) + 1
        per_app[app.name] = counts
        all_formulas.extend(formulas)
    return CorpusAnalysis(per_app, all_formulas)
