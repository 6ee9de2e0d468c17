// The benchmark is a module of its own so the root module's build and
// tests never depend on it; the repro/ import-path prefix is what lets
// it import repro/internal/... (Go checks internal visibility by path).
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
