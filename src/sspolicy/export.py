"""LP-file export of the canonical models (CPLEX-LP dialect subset).

The canonical model's indicator and piecewise-equality semantics are
lowered to big-M rows:

  * the no-order balance indicator becomes the Appendix-style pair
    0 <= I_t + mean_t - I_{t-1} <= delta_t * M' (M' sized from the model's
    big M and the variable bounds so no feasible point is cut off);
  * every piecewise rule contributes its segment epigraph rows through the
    cycle-selector-weighted cut rows already on the model;
  * rules flagged needs_equality additionally get segment-selection
    binaries z_<label>_<t>_<i> with hypograph rows pinning the holding
    variable to the active segment, plus the identity B_t = H_t - I_t.

A constant objective term is carried by the fixed column ONE. Variables
fixed by their bounds are substituted away, so a model whose binaries are
all structurally fixed exports as a pure LP. Output is deterministic and
byte-stable for equal models.
"""
from __future__ import annotations

import io
import math
from collections import OrderedDict

from .model import LinearRow, MilpModel


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _term_str(coef: float, var: str, first: bool) -> str:
    sign = "-" if coef < 0 else ("" if first else "+")
    mag = abs(coef)
    return f"{sign} {_fmt(mag)} {var} "


class _LpWriter:
    def __init__(self, model: MilpModel):
        self.model = model
        self.fixed = {name: lb for name, (lb, ub) in model.variables.items()
                      if lb == ub}
        self.extra_binaries: list[str] = []
        self.rows_out: list[tuple[str, list, str, float]] = []
        self.need_one = False

    def add_row(self, name: str, coeffs, sense: str, rhs: float):
        reduced = []
        for var, coef in coeffs:
            if coef == 0.0:
                continue
            if var in self.fixed:
                rhs -= coef * self.fixed[var]
            else:
                reduced.append((var, coef))
        if not reduced:
            ok = {"<=": rhs >= -1e-9, ">=": rhs <= 1e-9, "==": abs(rhs) <= 1e-9}
            if not ok[sense]:
                raise ValueError(f"row {name} is constant-infeasible after "
                                 f"substituting fixed variables")
            return
        self.rows_out.append((name, reduced, sense, rhs))

    def lower_indicators(self):
        for ind in self.model.indicators:
            row = ind.row
            binary = ind.binary
            # activation coefficient: row must relax fully when inactive
            big = self._row_relaxation(row)
            if ind.binary in self.fixed:
                if round(self.fixed[binary]) == ind.active_value:
                    self.add_row(row.name, list(row.coeffs), row.sense, row.rhs)
                continue
            sign = 1.0 if ind.active_value == 0 else -1.0
            offset = 0.0 if ind.active_value == 0 else big
            # active_value 0: lhs - rhs <= big * binary (and >= -big * binary)
            # active_value 1: lhs - rhs <= big * (1 - binary)
            if row.sense in ("<=", "=="):
                self.add_row(f"{row.name}_up",
                             list(row.coeffs) + [(binary, -sign * big)],
                             "<=", row.rhs + offset)
            if row.sense in (">=", "=="):
                self.add_row(f"{row.name}_dn",
                             list(row.coeffs) + [(binary, sign * big)],
                             ">=", row.rhs - offset)

    def _row_relaxation(self, row: LinearRow) -> float:
        """A bound on |lhs - rhs| over the variable box."""
        span = abs(row.rhs)
        for var, coef in row.coeffs:
            lb, ub = self.model.variables[var]
            span += abs(coef) * max(abs(lb), abs(ub))
        if not math.isfinite(span):
            span = 4.0 * self.model.big_m
        return span + 1.0

    def lower_piecewise_equalities(self):
        by_target: "OrderedDict[tuple, list]" = OrderedDict()
        for rule in self.model.piecewise:
            if rule.needs_equality:
                key = (rule.holding_var, rule.backorder_var,
                       rule.inventory_var, rule.period)
                by_target.setdefault(key, []).append(rule)
        for (h_var, b_var, i_var, period), rules in by_target.items():
            label = h_var.split("_")[1]
            n_seg = rules[0].pieces.segment_count
            z_names = [f"z_{label}_{period}_{i}" for i in range(n_seg)]
            self.extra_binaries.extend(z_names)
            self.add_row(f"z_assign_{label}_{period}",
                         [(z, 1.0) for z in z_names], "==", 1.0)
            ilb, iub = self.model.variables[i_var]
            for i, z in enumerate(z_names):
                coeffs = [(h_var, 1.0)]
                worst = 0.0
                for rule in rules:
                    pw = rule.pieces
                    slope = pw.slopes[i]
                    icpt = float(pw.segment_intercepts[i]) + pw.error_bound
                    const = slope * rule.demand_shift + icpt
                    coeffs.append((rule.selector, -const))
                    for edge in (ilb, iub):
                        y = edge + rule.demand_shift
                        gap = float(pw.upper(y)) - (slope * y + icpt)
                        worst = max(worst, gap)
                # single shared slope coefficient on the inventory variable
                coeffs.append((i_var, -rules[0].pieces.slopes[i]))
                big = worst + 1.0
                coeffs.append((z, big))
                self.add_row(f"pw_hi_{label}_{period}_{i}", coeffs, "<=", big)
            self.add_row(f"pw_identity_{label}_{period}",
                         [(b_var, 1.0), (h_var, -1.0), (i_var, 1.0)], "==", 0.0)

    def render(self) -> str:
        model = self.model
        for row in model.rows:
            self.add_row(row.name, list(row.coeffs), row.sense, row.rhs)
        for row in model.cuts:
            self.add_row(row.name, list(row.coeffs), row.sense, row.rhs)
        self.lower_indicators()
        self.lower_piecewise_equalities()

        obj_terms = []
        constant = model.objective_constant
        coef_by_var: "OrderedDict[str, float]" = OrderedDict()
        for var, coef in model.objective:
            if var in self.fixed:
                constant += coef * self.fixed[var]
            else:
                coef_by_var[var] = coef_by_var.get(var, 0.0) + coef
        for var, coef in coef_by_var.items():
            if coef != 0.0:
                obj_terms.append((var, coef))
        if constant != 0.0:
            self.need_one = True
            obj_terms.append(("ONE", constant))

        out = io.StringIO()
        out.write(f"\\ sspolicy {model.kind} model, horizon {model.horizon}, "
                  f"segments {model.segment_count}\n")
        out.write("Minimize\n obj: ")
        if not obj_terms:
            out.write("0 ONE ")
            self.need_one = True
        for idx, (var, coef) in enumerate(obj_terms):
            out.write(_term_str(coef, var, idx == 0))
        out.write("\nSubject To\n")
        for name, coeffs, sense, rhs in self.rows_out:
            out.write(f" {name}: ")
            for idx, (var, coef) in enumerate(coeffs):
                out.write(_term_str(coef, var, idx == 0))
            op = {"<=": "<=", ">=": ">=", "==": "="}[sense]
            out.write(f"{op} {_fmt(rhs)}\n")
        out.write("Bounds\n")
        for name, (lb, ub) in model.variables.items():
            if name in self.fixed:
                continue
            if name in model.binaries:
                continue
            if lb == -math.inf and ub == math.inf:
                out.write(f" {name} free\n")
            elif lb == -math.inf:
                out.write(f" -inf <= {name} <= {_fmt(ub)}\n")
            elif ub == math.inf:
                out.write(f" {name} >= {_fmt(lb)}\n")
            else:
                out.write(f" {_fmt(lb)} <= {name} <= {_fmt(ub)}\n")
        if self.need_one:
            out.write(" ONE = 1\n")
        free_binaries = [b for b in model.variables
                         if b in model.binaries and b not in self.fixed]
        if free_binaries or self.extra_binaries:
            out.write("Binary\n")
            for b in free_binaries:
                out.write(f" {b}\n")
            for b in self.extra_binaries:
                out.write(f" {b}\n")
        out.write("End\n")
        return out.getvalue()


def render_lp(model: MilpModel) -> str:
    return _LpWriter(model).render()


def export_lp(model: MilpModel, path) -> None:
    """Write the model in LP format; stable byte-for-byte per model."""
    text = render_lp(model)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
