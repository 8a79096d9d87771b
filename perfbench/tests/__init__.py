"""Tests for the benchmark harness."""
