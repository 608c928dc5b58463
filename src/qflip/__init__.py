"""qflip: numerical certification that exact flipping of three generic qubit
states would force deterministic conversion between LOCC-incomparable states.

The package computes the local spectra of the relevant states from Gram
matrices of Bob's blocks, without building the composite states, along two
independent routes (closed-form cubic roots and a numeric eigensolver),
applies the majorization criterion, and classifies the root orderings across
the whole parameter family.
"""

__version__ = "0.1.0"
