package main

import (
	"reflect"
	"testing"

	"repro/internal/cminic"
	"repro/internal/ir"
)

// selectSrc lowers line 6's `q->nxt = p` to two IR statements (the
// strong update nils the selector first), so -line can select several.
const selectSrc = `struct node { int v; struct node *nxt; };
void main(void) {
    struct node *p;
    struct node *q;
    q = malloc(sizeof(struct node));
    q->nxt = p;
}
`

func TestSelectStmts(t *testing.T) {
	file, err := cminic.Parse(selectSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.LowerMain(file)
	if err != nil {
		t.Fatal(err)
	}
	var line6 []int
	for _, s := range prog.Stmts {
		if s.Line == 6 {
			line6 = append(line6, s.ID)
		}
	}
	if len(line6) < 2 {
		t.Fatalf("line 6 lowers to %v; the -line case needs two statements", line6)
	}
	last := len(prog.Stmts) - 1

	for _, tc := range []struct {
		name       string
		stmt, line int
		want       []int
		wantErr    bool
	}{
		{name: "none", stmt: -1, line: -1},
		{name: "first stmt", stmt: 0, line: -1, want: []int{0}},
		{name: "last stmt", stmt: last, line: -1, want: []int{last}},
		{name: "stmt past end", stmt: last + 1, line: -1, wantErr: true},
		{name: "stmt far past end", stmt: 9999, line: -1, wantErr: true},
		{name: "negative stmt", stmt: -2, line: -1, wantErr: true},
		{name: "line", stmt: -1, line: 6, want: line6},
		{name: "line without statements", stmt: -1, line: 1, wantErr: true},
		{name: "line past end", stmt: -1, line: 9999, wantErr: true},
		{name: "both", stmt: 0, line: 6, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := selectStmts(prog, tc.stmt, tc.line)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("selectStmts(%d, %d) = %v, want an error", tc.stmt, tc.line, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("selectStmts(%d, %d): %v", tc.stmt, tc.line, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("selectStmts(%d, %d) = %v, want %v", tc.stmt, tc.line, got, tc.want)
			}
		})
	}
}
