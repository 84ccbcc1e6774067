"""Declarative exploration campaigns: a JSON/TOML file is the whole run.

A campaign file names an exploration configuration once — budget, seed,
coverage feedback, per-job timeout and the axis menus — so CI, nightly jobs
and humans run the *same* campaign by pointing ``python -m repro explore
--campaign FILE`` at the same committed file, instead of each re-deriving a
flag soup.  The parsed campaign rides in the artifact's ``config.explore``
section, making every result file self-describing.

File format (TOML shown; JSON carries the identical keys)::

    name = "wire-faults-smoke"           # required
    description = "..."                  # optional, documentation only
    budget = 25                          # scenarios to run (default 25)
    seed = 2026                          # campaign seed (default 0)
    coverage = true                      # coverage-guided feedback (default false)
    batch = 5                            # feedback batch size (default 8)
    quick = true                         # reduced per-scenario workloads
    timeout_s = 60.0                     # hard per-job timeout
    mutant = ""                          # optional known-bad canary variant

    [axes]                               # optional menu overrides; every
    protocols = ["sbs", "gsbs"]          # entry must parse.  Omitted axes
    wire = ["flip:0.3", "tamper-value:0.5"]  # keep the built-in menus.
    # schedulers = [...], fault_plans = [...]

Unknown keys are errors — a typo'd ``buget`` must not silently run the
defaults.
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.engine.wire import WireError
from repro.engine.wire_faults import parse_wire_faults
from repro.explore.scenarios import MENU_KEYS, MUTANTS, PROTOCOL_BEHAVIOURS

_TOP_KEYS = frozenset(
    {"name", "description", "budget", "seed", "coverage", "batch",
     "quick", "timeout_s", "mutant", "axes"}
)


@dataclass(frozen=True)
class Campaign:
    """One parsed campaign file (see the module docstring for the format)."""

    name: str
    description: str = ""
    budget: int = 25
    seed: int = 0
    coverage: bool = False
    batch: int = 8
    quick: bool = False
    timeout_s: float | None = None
    mutant: str = ""
    axes: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def menus(self) -> dict[str, tuple[str, ...]] | None:
        """The axis menus for :class:`~repro.explore.scenarios.ScenarioSampler`."""
        return dict(self.axes) or None

    def to_config(self) -> dict[str, Any]:
        """JSON-ready form embedded in the artifact's ``config.explore``."""
        return {
            "name": self.name,
            "description": self.description,
            "budget": self.budget,
            "seed": self.seed,
            "coverage": self.coverage,
            "batch": self.batch,
            "quick": self.quick,
            "timeout_s": self.timeout_s,
            "mutant": self.mutant,
            "axes": {key: list(values) for key, values in sorted(self.axes.items())},
        }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"bad campaign: {message}")


def campaign_from_dict(data: Any) -> Campaign:
    """Validate a decoded campaign mapping; loud on any malformation."""
    _require(isinstance(data, dict), f"expected a mapping, got {type(data).__name__}")
    unknown = sorted(set(data) - _TOP_KEYS)
    _require(not unknown, f"unknown keys {unknown}; known: {', '.join(sorted(_TOP_KEYS))}")
    name = data.get("name")
    _require(isinstance(name, str) and name.strip(), "a non-empty string 'name' is required")
    description = data.get("description", "")
    _require(isinstance(description, str), "'description' must be a string")
    budget = data.get("budget", 25)
    _require(isinstance(budget, int) and not isinstance(budget, bool) and budget >= 1,
             f"'budget' must be an int >= 1, got {budget!r}")
    seed = data.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool),
             f"'seed' must be an int, got {seed!r}")
    coverage = data.get("coverage", False)
    _require(isinstance(coverage, bool), f"'coverage' must be a bool, got {coverage!r}")
    batch = data.get("batch", 8)
    _require(isinstance(batch, int) and not isinstance(batch, bool) and batch >= 1,
             f"'batch' must be an int >= 1, got {batch!r}")
    quick = data.get("quick", False)
    _require(isinstance(quick, bool), f"'quick' must be a bool, got {quick!r}")
    timeout_s = data.get("timeout_s")
    if timeout_s is not None:
        _require(isinstance(timeout_s, (int, float)) and not isinstance(timeout_s, bool)
                 and timeout_s > 0, f"'timeout_s' must be a positive number, got {timeout_s!r}")
        timeout_s = float(timeout_s)
    mutant = data.get("mutant", "")
    _require(isinstance(mutant, str), f"'mutant' must be a string, got {mutant!r}")
    _require(not mutant or mutant in MUTANTS,
             f"unknown mutant {mutant!r}; known: {', '.join(MUTANTS)}")
    axes = _validate_axes(data.get("axes", {}))
    return Campaign(
        name=name.strip(), description=description, budget=budget, seed=seed,
        coverage=coverage, batch=batch, quick=quick, timeout_s=timeout_s,
        mutant=mutant, axes=axes,
    )


def _validate_axes(raw: Any) -> dict[str, tuple[str, ...]]:
    _require(isinstance(raw, dict), f"'axes' must be a table/object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(MENU_KEYS))
    _require(not unknown, f"unknown axes {unknown}; known: {', '.join(MENU_KEYS)}")
    axes: dict[str, tuple[str, ...]] = {}
    for key, values in raw.items():
        _require(isinstance(values, list) and values
                 and all(isinstance(v, str) for v in values),
                 f"axis {key!r} must be a non-empty list of strings")
        if key == "protocols":
            bad = sorted(set(values) - set(PROTOCOL_BEHAVIOURS))
            _require(not bad, f"unknown protocols {bad}; known: "
                              f"{', '.join(PROTOCOL_BEHAVIOURS)}")
        if key == "wire":
            for value in values:
                if not value:
                    continue
                try:
                    parse_wire_faults(value)
                except WireError as exc:
                    raise ValueError(f"bad campaign: wire axis {value!r}: {exc}") from None
        axes[key] = tuple(values)
    return axes


def load_campaign(path: str | Path) -> Campaign:
    """Load and validate a campaign file (``.toml`` or ``.json``)."""
    path = Path(path)
    suffix = path.suffix.lower()
    text = path.read_text()
    if suffix == ".toml":
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ValueError(f"{path}: invalid TOML ({exc})") from None
    elif suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from None
    else:
        raise ValueError(f"{path}: campaign files are .toml or .json, got {suffix!r}")
    try:
        return campaign_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
