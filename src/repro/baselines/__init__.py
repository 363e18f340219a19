"""Reimplementations of the state-of-the-art baseline checkers the paper
compares against: Cobra (SER), PolySI (SI), Porcupine (linearizability),
Elle (list-append / registers), and dbcop (session-frontier SER)."""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "CobraChecker": ".cobra",
    "CobraReport": ".cobra",
    "DbcopChecker": ".dbcop",
    "ElleChecker": ".elle",
    "Constraint": ".polygraph",
    "Polygraph": ".polygraph",
    "build_polygraph": ".polygraph",
    "PolySIChecker": ".polysi",
    "PolySIReport": ".polysi",
    "PorcupineChecker": ".porcupine",
    "PolygraphSolver": ".solver",
    "SolveResult": ".solver",
})
