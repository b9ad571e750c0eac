// Package pathexpr implements the XPath-subset path expression language of
// the paper (Section 2):
//
//	l1{σ1}[branch1]/ ... /ln{σn}[branchn]
//
// where each li is an element label, σi is an optional integer range value
// predicate restricting the value of the element reached at step i, and each
// [branch] is an optional branching predicate requiring the existence of at
// least one match of a nested relative path. Steps may use the child axis
// ("/") or the descendant axis ("//").
//
// Concrete syntax accepted by Parse (XPath-flavoured):
//
//	author/paper[year>2000]/keyword
//	//movie[type=5]/actor
//	paper[>1990][keyword]/title
//	item[quantity>=2][payment][shipping]/mailbox//mail
//
// A label is a run of letters, digits and "_-@.", read as UTF-8 (so
// "//café" names the element café); a byte that is not valid UTF-8 ends
// it.
//
// A bracket whose content starts with a comparison operator ("[>2000]") is a
// value predicate on the current step's own element; otherwise the bracket
// holds a branching predicate — a relative path whose final step may carry a
// trailing comparison ("[year>2000]"), which is shorthand for a value
// predicate on that final step.
package pathexpr
