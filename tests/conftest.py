"""Imported by pytest before any test module: uqshift comes first, so its
one-BLAS-thread setting holds before numpy loads and the trees the tests
build in-process are the one-thread reference trees."""

import uqshift  # noqa: F401
