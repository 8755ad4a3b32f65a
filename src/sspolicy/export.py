"""LP-file export of the canonical models (CPLEX-LP dialect subset).

The canonical model's indicator and piecewise-equality semantics are
lowered to big-M rows:

  * the no-order balance indicator becomes the Appendix-style pair
    0 <= I_t + mean_t - I_{t-1} <= delta_t * M' (M' sized from the model's
    big M and the variable bounds so no feasible point is cut off);
  * every piecewise rule contributes its segment epigraph rows through the
    cycle-selector-weighted cut rows already on the model;
  * rules flagged `equality` additionally get segment-selection binaries
    z_<label>_<t>_<i> with hypograph rows pinning the holding variable to
    the active segment, plus the identity B_t = H_t - I_t; rules of one
    holding column and period share them.

A constant objective term is carried by the fixed column ONE. Variables
fixed by their bounds are substituted away, so a model whose binaries are
all structurally fixed exports as a pure LP. The writer reads the model's
row table (see sspolicy.model): rows are written in kind order (linear
rows, cuts, lowered indicators, then piecewise equalities), each with its
terms in emission order. Output is deterministic and byte-stable for equal
models.
"""
from __future__ import annotations

import io
import math

import numpy as np

from .domain import running_sums
from .model import INDICATOR, MilpModel


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _term_str(coef: float, var: str, first: bool) -> str:
    sign = "-" if coef < 0 else ("" if first else "+")
    mag = abs(coef)
    return f"{sign} {_fmt(mag)} {var} "


class _LpWriter:
    """Rows are (column, coefficient) lists; columns past the model's own
    are the export's segment-selection binaries, named in self.names."""

    def __init__(self, model: MilpModel):
        self.model = model
        self.names = list(model.names)
        lb = model.lb.tolist()
        self.fixed = {col: lb[col] for col in np.flatnonzero(model.lb == model.ub).tolist()}
        self.reach = np.maximum(np.abs(model.lb), np.abs(model.ub)).tolist()
        self.rows_out: list[tuple[str, list, str, float]] = []
        self.need_one = False

    def add_row(self, name: str, terms, sense: str, rhs: float):
        reduced = []
        for col, coef in terms:
            if coef == 0.0:
                continue
            if col in self.fixed:
                rhs -= coef * self.fixed[col]
            else:
                reduced.append((col, coef))
        if not reduced:
            ok = {"<=": rhs >= -1e-9, ">=": rhs <= 1e-9, "==": abs(rhs) <= 1e-9}
            if not ok[sense]:
                raise ValueError(f"row {name} is constant-infeasible after "
                                 f"substituting fixed variables")
            return
        self.rows_out.append((name, reduced, sense, rhs))

    def lower_indicator(self, name, terms, sense, rhs, binary):
        """Relax the row fully while `binary` is 1: |lhs - rhs| <= M' * binary."""
        if binary in self.fixed:
            if round(self.fixed[binary]) == 0:
                self.add_row(name, terms, sense, rhs)
            return
        span = running_sums([abs(rhs)] + [abs(coef) * self.reach[col]
                                          for col, coef in terms])[-1]
        big = (span if math.isfinite(span) else 4.0 * self.model.big_m) + 1.0
        if sense in ("<=", "=="):
            self.add_row(f"{name}_up", terms + [(binary, -big)], "<=", rhs)
        if sense in (">=", "=="):
            self.add_row(f"{name}_dn", terms + [(binary, big)], ">=", rhs)

    def lower_piecewise_equalities(self):
        model = self.model
        pw = model.piecewise
        groups: dict = {}  # (holding, backorder, inventory, period) -> rules
        for r in np.flatnonzero(pw.equality).tolist():
            key = (int(pw.holding[r]), int(pw.backorder[r]),
                   int(pw.inventory[r]), int(pw.period[r]))
            groups.setdefault(key, []).append(r)
        segs = model.segments
        for (h, b, inv, period), rules in groups.items():
            label = pw.label[rules[0]]
            at = pw.piece[rules].tolist()
            z_cols = range(len(self.names), len(self.names) + segs.slopes.shape[1])
            self.names += [f"z_{label}_{period}_{i}" for i in range(len(z_cols))]
            self.add_row(f"z_assign_{label}_{period}",
                         [(z, 1.0) for z in z_cols], "==", 1.0)
            ilb, iub = model.lb[inv], model.ub[inv]
            for i, z in enumerate(z_cols):
                terms = [(h, 1.0)]
                worst = 0.0
                for r, row in zip(rules, at):
                    slope, icpt = segs.slopes[row, i], segs.lines[row, i]
                    mean = segs.means[row]
                    const = slope * mean + icpt
                    terms.append((int(pw.selector[r]), -const))
                    for edge in (ilb, iub):
                        y = edge + mean
                        # the row's upper bound at y, as PiecewiseLoss.upper
                        upper = (np.maximum(y - segs.breakpoints[row], 0.0)
                                 @ segs.steps + segs.errors[row])
                        gap = float(upper) - (slope * y + icpt)
                        worst = max(worst, gap)
                # single shared slope coefficient on the inventory variable
                terms.append((inv, -segs.slopes[at[0], i]))
                big = worst + 1.0
                terms.append((z, big))
                self.add_row(f"pw_hi_{label}_{period}_{i}", terms, "<=", big)
            self.add_row(f"pw_identity_{label}_{period}",
                         [(b, 1.0), (h, -1.0), (inv, 1.0)], "==", 0.0)

    def render(self) -> str:
        model = self.model
        rows = model.rows
        indptr = rows.matrix.indptr.tolist()
        cols, vals = rows.matrix.indices.tolist(), rows.matrix.data.tolist()
        names, sense, rhs = rows.names.tolist(), rows.sense.tolist(), rows.rhs.tolist()
        for r in np.argsort(rows.kind, kind="stable").tolist():
            terms = list(zip(cols[indptr[r]:indptr[r + 1]],
                             vals[indptr[r]:indptr[r + 1]]))
            if rows.kind[r] == INDICATOR:
                self.lower_indicator(names[r], terms, sense[r], rhs[r],
                                     int(rows.condition[r]))
            else:
                self.add_row(names[r], terms, sense[r], rhs[r])
        self.lower_piecewise_equalities()

        obj_terms = []
        constant = model.objective_constant
        for col, coef in zip(*(a.tolist() for a in model.objective)):
            if col in self.fixed:
                constant += coef * self.fixed[col]
            elif coef != 0.0:
                obj_terms.append((self.names[col], coef))
        if constant != 0.0:
            self.need_one = True
            obj_terms.append(("ONE", constant))

        out = io.StringIO()
        out.write(f"\\ sspolicy {model.kind} model, horizon "
                  f"{model.instance.horizon}, segments {model.segments.slopes.shape[1]}\n")
        out.write("Minimize\n obj: ")
        if not obj_terms:
            out.write("0 ONE ")
            self.need_one = True
        for idx, (var, coef) in enumerate(obj_terms):
            out.write(_term_str(coef, var, idx == 0))
        out.write("\nSubject To\n")
        for name, terms, sense, rhs in self.rows_out:
            out.write(f" {name}: ")
            for idx, (col, coef) in enumerate(terms):
                out.write(_term_str(coef, self.names[col], idx == 0))
            op = {"<=": "<=", ">=": ">=", "==": "="}[sense]
            out.write(f"{op} {_fmt(rhs)}\n")
        out.write("Bounds\n")
        binary = model.binary.tolist()
        for col, (name, lb, ub) in enumerate(zip(model.names, model.lb.tolist(),
                                                 model.ub.tolist())):
            if col in self.fixed or binary[col]:
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
        # the model's unfixed binaries, then the export's segment selectors
        binaries = [name for col, name in enumerate(model.names)
                    if binary[col] and col not in self.fixed]
        binaries += self.names[len(model.names):]
        if binaries:
            out.write("Binary\n")
            for b in binaries:
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
