// The benchmark is a module of its own so that it builds from its own
// directory (`go build -C benchmark`) without touching the root build
// file. The module path keeps the `bcwan/` prefix, which is what lets it
// import the repo's internal packages through the replace below.
module bcwan/benchmark

go 1.22

require bcwan v0.0.0

replace bcwan => ../
