"""Shared test-side constructors."""

from owlfl.flogic import Atom, FlSymbol, FlTerm


def atom(name_or_term) -> Atom:
    """The class atom of a term, or of the symbol with a name."""
    if isinstance(name_or_term, FlTerm):
        return Atom(name_or_term)
    return Atom(FlSymbol(name_or_term))
