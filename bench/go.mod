// The benchmark is a module of its own so it has its own build file and
// stays out of the root module's `go build ./... && go test ./...`; the
// module path keeps it inside gosoma's import tree, which is what lets it
// import gosoma/internal/... packages.
module github.com/hpcobs/gosoma/bench

go 1.22

require github.com/hpcobs/gosoma v0.0.0

replace github.com/hpcobs/gosoma => ../
