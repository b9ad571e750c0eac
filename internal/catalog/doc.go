// Package catalog implements the standalone binary synopsis format and
// the on-disk sketch catalog built on it.
//
// A Twig XSKETCH is built once, offline, against the document and then
// consulted many times by an optimizer. The format stores everything the
// estimator reads and nothing it does not: a fixed little-endian header
// (magic, version, checksum), the interned tag table, flat
// node/edge/scope arrays with per-node extent counts, and the serialized
// histograms and value dimensions. Decode reconstructs a detached sketch
// (graphsyn.FromDetached + xsketch.FromStored) whose estimates are
// Float64bits-identical to the sketch that was encoded, with no document
// available at all — the paper's offline-build/online-estimate split made
// literal: replicas load a synopsis of a few kilobytes, never the
// multi-megabyte tree it summarizes. It is the only persistence format:
// xbuild -o and -catalog, xestimate -synopsis, xserve and the public
// SaveSketch/LoadSketch all read and write it.
//
// On top of the codec sits a catalog directory abstraction: Write encodes
// a sketch atomically into DIR/<name>.xsb, Scan lists a directory's
// synopses from their headers, and Open decodes one with full checksum
// verification. xbuild writes into a catalog, xserve scans one at startup
// and hot-swaps sketches from it through POST /admin/reload or SIGHUP.
package catalog
