"""Symbolic expression trees in prefix form, with grammar-aware sampling
constraints and numeric constant fitting."""
