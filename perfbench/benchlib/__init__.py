"""Library of the repository benchmark: run protocol, tracing, workloads."""
