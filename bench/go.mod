// The benchmark is a module of its own so that the root module's
// `go build ./... && go test ./...` never sees it. The subtrav/ prefix is
// what lets it import subtrav/internal/...; the replace points at the tree
// it measures.
module subtrav/bench

go 1.22

require subtrav v0.0.0

replace subtrav => ../
