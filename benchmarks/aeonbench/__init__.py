"""aeonbench: the repo's benchmark (see README.md; registered in /BENCHMARK.json)."""
