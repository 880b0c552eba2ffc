// Hub-rotation soundness regression, distilled by triage.Shrink from
// the fuzzer find: a hub h keeps two selectors into the growing chain
// while the chain head rotates (p = q). PRUNE's share rule once
// evicted the hub's prv sharing on the strength of an unanchored JOIN
// copy and dropped reachable heaps at L1; see DESIGN.md §11.
struct node { struct node *nxt; struct node *prv; };
void main(void) {
    struct node *h;
    struct node *p;
    struct node *q;
    h = malloc(sizeof(struct node));
    p = malloc(sizeof(struct node));
    h->nxt = p;
    while (cond) {
        q = malloc(sizeof(struct node));
        p->nxt = q;
        h->prv = q;
        p = q;
    }
}
