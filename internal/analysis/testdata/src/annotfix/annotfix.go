// Package annotfix seeds //demi: marker mistakes for the annot analyzer
// tests: names nothing reads (misspellings, and the markers of checks that
// were deleted), markers a blank line has detached from their declaration,
// and markers on the wrong kind of declaration — each of which the index
// skips, silently switching off the check the author asked for. The legal
// form beside them is what TestAnnotationsReadCold reads.
package annotfix

// Record is a transfer record. //demi:carrier and //demi:stateguard were
// read by checks that no longer exist, so a leftover one is unknown.
//
//demi:carrier no longer a marker // want `unknown annotation //demi:carrier`
type Record struct {
	// Seq only advances when the operation it counts completed.
	//
	//demi:stateguard no longer a marker // want `unknown annotation //demi:stateguard`
	Seq uint32
	Ack uint32 //demi:stateguard nor in a line comment // want `unknown annotation //demi:stateguard`
	Len int
}

type (
	//demi:carrier nor on a grouped type // want `unknown annotation //demi:carrier`
	Grouped struct{ N int }
)

// hot is annotated where the marker is read. Prose may quote a marker —
// //demi:nonalloc, say — because such a line does not start with one.
//
//demi:nonalloc legal: a function's doc comment
func hot(r *Record) int { return r.Len }

// typo asked for a check that does not exist; nothing ran.
//
//demi:nonaloc misspelled // want `unknown annotation //demi:nonaloc`
func typo(r *Record) int { return r.Len }

// leftover carries a marker of a dialect that was deleted.
//
//demi:budget=5ns no longer a marker // want `unknown annotation //demi:budget=5ns`
func leftover(r *Record) int { return r.Len }

// valued gives a marker a value its grammar does not have.
//
//demi:nonalloc=strict // want `unknown annotation //demi:nonalloc=strict`
func valued(r *Record) int { return r.Len }

//demi:nonalloc the blank line below detaches this from detached // want `//demi:nonalloc is not read here: it belongs in a function's doc comment`

func detached(r *Record) int { return r.Len }

// Plain is a type, and types do not allocate.
//
//demi:nonalloc wrong kind of declaration // want `//demi:nonalloc is not read here: it belongs in a function's doc comment`
type Plain struct {
	//demi:carrier fields are not carriers // want `unknown annotation //demi:carrier`
	N int
}

// guardless is a function, not a field.
//
//demi:stateguard on a function // want `unknown annotation //demi:stateguard`
func guardless(r *Record) {
	//demi:nonalloc markers inside a body annotate nothing // want `//demi:nonalloc is not read here`
	r.Len++
}
