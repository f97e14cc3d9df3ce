import jtsim  # noqa: F401  (jtsim pins BLAS to one thread only if it loads before numpy)
