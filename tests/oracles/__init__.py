"""Retired implementations kept as bitwise oracles for their replacements."""
