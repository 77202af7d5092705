"""Tests of the simulator's hot path: the calendar-queue engine, the packed
state, the golden-digest replay and the normalised perf gate."""
