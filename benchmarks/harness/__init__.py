"""One wall-clock benchmark for the coMtainer reproduction.

Four end-to-end adaptation paths run as named workloads, each in a fresh
subprocess; a separate traced run attributes wall-clock time to each
``repro`` layer.  See ``README.md`` in this directory for the metrics,
their bounds and how to run and compare.
"""
