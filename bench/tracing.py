"""Per-layer tracing of tblab from outside the library.

Each public function below is replaced, in every tblab module that holds
it, by a Tracer stand-in.  Callers look names up in their own module at
call time (`tblab.series.jy_values`, `tblab.identities.coefficient_array`,
`tblab.specfun.dirichlet_L` for calls inside specfun), so every call
through a public name is seen.  Calls to private helpers are not: their
time counts as the self time of the public function that made them (for
example, dirichlet_L reaches Hurwitz zeta through a private routine for
non-principal characters, so specfun.hurwitz_zeta counts only calls by
name, as from riemann_zeta).  Branch counts compare the arguments with
the cut constants that tblab.bessel publishes.
"""

from __future__ import annotations

import importlib
import sys

import numpy as np

from harness import Tracer, self_times

SECTIONS = ("sec2", "classical", "cohen", "cohen-half", "voronoi")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_coefs(tr, args, kwargs, result, dt):
    tr.add("arith.coefficient_array.coefs", _arg(args, kwargs, 1, "count"))


def _count_jy(cuts):
    def count(tr, args, kwargs, result, dt):
        xs = np.asarray(_arg(args, kwargs, 1, "xs"), dtype=float)
        small = int(np.count_nonzero(xs <= cuts.JY_CUT))
        tr.add("bessel.jy_values.points", xs.size)
        tr.add("bessel.jy_values.small_points", small)
        tr.add("bessel.jy_values.big_points", xs.size - small)
    return count


def _count_k(cuts):
    def count(tr, args, kwargs, result, dt):
        xs = np.asarray(_arg(args, kwargs, 1, "xs"), dtype=float)
        small = int(np.count_nonzero(xs <= cuts.K_SERIES_CUT))
        big = int(np.count_nonzero(xs >= cuts.K_ASYM_CUT))
        tr.add("bessel.k_values.points", xs.size)
        tr.add("bessel.k_values.small_points", small)
        tr.add("bessel.k_values.mid_points", xs.size - small - big)
        tr.add("bessel.k_values.big_points", big)
    return count


def _count_terms(key):
    def count(tr, args, kwargs, result, dt):
        tr.add(key, result.terms)
    return count


def _count_scales(tr, args, kwargs, result, dt):
    tr.add("series.oscillatory_kernel_integrals.scales",
           np.asarray(_arg(args, kwargs, 4, "cs")).size)


def _count_l_repeats(seen: set):
    def count(tr, args, kwargs, result, dt):
        key = (complex(_arg(args, kwargs, 0, "s")), _arg(args, kwargs, 1, "chi"))
        if key in seen:
            tr.add("specfun.dirichlet_L.repeats")
        seen.add(key)
    return count


def _count_section(theorems):
    def count(tr, args, kwargs, result, dt):
        section = theorems[_arg(args, kwargs, 0, "case").theorem].section
        tr.add(f"identities.{section}.busy_s", dt)
    return count


def _targets():
    """(module, function, layer name, counter) for every traced function."""
    from tblab import bessel, identities
    closed_tails = "series.closed_tails"
    return [
        ("arith", "coefficient_array", "arith.coefficient_array", _count_coefs),
        ("arith", "divisor_sum", "arith.divisor_sum", None),
        ("arith", "closed_form_F", "arith.closed_form", None),
        ("arith", "closed_form_F_prime", "arith.closed_form", None),
        ("bessel", "jy_values", "bessel.jy_values", _count_jy(bessel)),
        ("bessel", "k_values", "bessel.k_values", _count_k(bessel)),
        ("series", "bessel_series", "series.bessel_series",
         _count_terms("series.bessel_series.terms")),
        ("series", "shifted_power_series", closed_tails,
         _count_terms(closed_tails + ".head_terms")),
        ("series", "log_kernel_series", closed_tails,
         _count_terms(closed_tails + ".head_terms")),
        ("series", "cohen_tail_series", closed_tails,
         _count_terms(closed_tails + ".head_terms")),
        ("series", "oscillatory_kernel_integrals",
         "series.oscillatory_kernel_integrals", _count_scales),
        ("series", "adaptive_integral", "series.adaptive_integral", None),
        ("specfun", "dirichlet_L", "specfun.dirichlet_L", _count_l_repeats(set())),
        ("specfun", "L_derivative", "specfun.L_derivative", None),
        ("specfun", "hurwitz_zeta", "specfun.hurwitz_zeta", None),
        ("characters", "enumerate_characters", "characters.enumerate_characters", None),
        ("characters", "gauss_sum", "characters.gauss_sum", None),
        ("identities", "verify", "identities.verify",
         _count_section(identities.THEOREMS)),
    ]


def _tblab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "tblab" or name.startswith("tblab."))]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Swap every binding of the traced functions for a stand-in.

    Returns the swaps made, for uninstall().
    """
    swaps = []
    modules = _tblab_modules()
    for mod_name, fn_name, layer, counter in _targets():
        original = getattr(importlib.import_module(f"tblab.{mod_name}"), fn_name)
        stand_in = tracer.wrap(layer, original, counter)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, stand_in)
                    swaps.append((module, attr, original))
    return swaps


def uninstall(swaps) -> None:
    for module, attr, original in swaps:
        setattr(module, attr, original)


LAYERS = (
    "arith.coefficient_array", "arith.divisor_sum", "arith.closed_form",
    "bessel.jy_values", "bessel.k_values", "series.bessel_series",
    "series.closed_tails", "series.oscillatory_kernel_integrals",
    "series.adaptive_integral", "specfun.dirichlet_L",
    "specfun.L_derivative", "specfun.hurwitz_zeta",
    "characters.enumerate_characters", "characters.gauss_sum",
    "identities.verify",
)

_COUNTS = (
    "arith.coefficient_array.coefs",
    "bessel.jy_values.points", "bessel.jy_values.small_points",
    "bessel.jy_values.big_points",
    "bessel.k_values.points", "bessel.k_values.small_points",
    "bessel.k_values.mid_points", "bessel.k_values.big_points",
    "series.bessel_series.terms", "series.closed_tails.head_terms",
    "series.oscillatory_kernel_integrals.scales",
)

_RATES = (
    ("arith.coefficient_array.coefs_per_s", "arith.coefficient_array.coefs",
     "arith.coefficient_array"),
    ("bessel.jy_values.points_per_s", "bessel.jy_values.points", "bessel.jy_values"),
    ("bessel.k_values.points_per_s", "bessel.k_values.points", "bessel.k_values"),
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """calls and self_s for every layer, the counters, rates over self
    time, dirichlet_L's repeat ratio and the busy time of each section."""
    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        if span[0] in calls:
            calls[span[0]] += 1
            busy[span[0]] += own
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = busy[layer]
    for key in _COUNTS:
        out[key] = tracer.counts.get(key, 0.0)
    for key, num, layer in _RATES:
        out[key] = out[num] / busy[layer] if busy[layer] > 0 else 0.0
    l_calls = calls["specfun.dirichlet_L"]
    out["specfun.dirichlet_L.repeat_ratio"] = (
        tracer.counts.get("specfun.dirichlet_L.repeats", 0.0) / l_calls
        if l_calls else 0.0)
    for section in SECTIONS:
        key = f"identities.{section}.busy_s"
        out[key] = tracer.counts.get(key, 0.0)
    return out
